package sched

import (
	"cmp"
	"slices"
	"testing"

	"github.com/paper-repo-growth/mirs/pkg/gen"
	"github.com/paper-repo-growth/mirs/pkg/ir"
	"github.com/paper-repo-growth/mirs/pkg/machine"
)

// refPlacementOrder is placementOrder as it was before it shared
// Heights' topological order and scratch: its own topological sort,
// heights, position table, emitted flags and an unsized result.
func refPlacementOrder(g *ir.Graph) ([]int, error) {
	topo, err := g.IntraTopoOrder()
	if err != nil {
		return nil, err
	}
	height, err := Heights(g)
	if err != nil {
		return nil, err
	}
	pos := make([]int, g.NumNodes())
	for i, v := range topo {
		pos[v] = i
	}
	order := append([]int(nil), topo...)
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(height[b], height[a]), cmp.Compare(pos[a], pos[b]))
	})
	emitted := make([]bool, g.NumNodes())
	var final []int
	for len(final) < len(order) {
		for _, v := range order {
			if emitted[v] {
				continue
			}
			ready := true
			for _, e := range g.Preds(v) {
				if e.Distance == 0 && !emitted[e.From] {
					ready = false
				}
			}
			if ready {
				emitted[v] = true
				final = append(final, v)
			}
		}
	}
	return final, nil
}

// TestPlacementOrderMatchesReference: the list scheduler places in the
// same order as the reference on every loop of gen.Corpus(1, 240) and
// the example loops, on every canned machine, strict and relaxed.
func TestPlacementOrderMatchesReference(t *testing.T) {
	loops := append(ir.ExampleLoops(), gen.Corpus(1, 240)...)
	for _, m := range []*machine.Machine{machine.Unified(), machine.Paper4Cluster(), machine.Tight()} {
		for _, opts := range []*ir.BuildOptions{nil, {OutputLatency: 1, RenameCopies: 3}} {
			for _, l := range loops {
				g, err := ir.Build(l, m, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := placementOrder(g)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := refPlacementOrder(g)
				if !slices.Equal(got, want) {
					t.Fatalf("%s on %s: placement order %v, reference %v", l.Name, m.Name, got, want)
				}
			}
		}
	}
}
