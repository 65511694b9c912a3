package ir_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// goldenGraphs calls visit with every graph the build golden covers:
// ir.ExampleLoops() and gen.Corpus(1, 240) on each canned machine, built
// strict and with RenameCopies 3, each as built and after one SpliceSpill
// of its first true dependence's definition.
func goldenGraphs(tb testing.TB, visit func(*ir.Graph)) {
	tb.Helper()
	loops := append(ir.ExampleLoops(), gen.Corpus(1, 240)...)
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
		for _, opts := range []*ir.BuildOptions{nil, {RenameCopies: 3}} {
			for _, l := range loops {
				g, err := ir.Build(l, m, opts)
				if err != nil {
					tb.Fatalf("Build(%s on %s): %v", l.Name, m.Name, err)
				}
				visit(g)
				for _, e := range g.Edges {
					if e.Kind != ir.DepTrue {
						continue
					}
					c := g.Clone()
					if _, err := c.SpliceSpill(e.From, e.Reg); err != nil {
						tb.Fatalf("SpliceSpill(%d, %s) on %s/%s: %v", e.From, e.Reg, l.Name, m.Name, err)
					}
					visit(c)
					break
				}
			}
		}
	}
}

// hashGraph folds into h the graph's edge array and, per node, the
// order of its Succs and Preds views as indices into that array.
func hashGraph(h io.Writer, g *ir.Graph) {
	fmt.Fprintf(h, "%s %d %d\n", g.Loop.Name, g.NumNodes(), len(g.Edges))
	index := make(map[*ir.Edge]int, len(g.Edges))
	for i := range g.Edges {
		e := &g.Edges[i]
		index[e] = i
		fmt.Fprintf(h, "%d %d %d %d %d %d\n", e.From, e.To, e.Kind, e.Distance, e.Latency, e.Reg)
	}
	for v := 0; v < g.NumNodes(); v++ {
		fmt.Fprint(h, "s")
		for _, e := range g.Succs(v) {
			fmt.Fprintf(h, " %d", index[e])
		}
		fmt.Fprint(h, "\np")
		for _, e := range g.Preds(v) {
			fmt.Fprintf(h, " %d", index[e])
		}
		fmt.Fprintln(h)
	}
}

// TestBuildGolden pins the dependence graphs Build derives — the edge
// array and the Succs/Preds order every scheduler iterates — folded into
// one FNV-1a hash over goldenGraphs. The constant was measured while
// Build still gathered definition and use sites in maps; a change to how
// Build finds the sites that changes what it derives fails here.
func TestBuildGolden(t *testing.T) {
	const (
		wantGraphs = 2976
		wantHash   = uint64(0x6b2766e8e76745d8)
	)
	h := fnv.New64a()
	graphs := 0
	goldenGraphs(t, func(g *ir.Graph) {
		hashGraph(h, g)
		graphs++
	})
	if graphs != wantGraphs || h.Sum64() != wantHash {
		t.Fatalf("%d graphs, hash %#x; want %d, %#x", graphs, h.Sum64(), wantGraphs, wantHash)
	}
}
