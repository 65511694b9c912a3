package machine

import (
	"reflect"
	"strings"
	"testing"
)

// unitsFor counts the units of m that support class c.
func unitsFor(m *Machine, c OpClass) int {
	n := 0
	for ci := range m.Clusters {
		for ui := range m.Clusters[ci].Units {
			if m.Clusters[ci].Units[ui].Supports(c) {
				n++
			}
		}
	}
	return n
}

func TestCannedConfigsValidate(t *testing.T) {
	for _, m := range []*Machine{Unified(), Paper4Cluster(), Tight()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestTightShape(t *testing.T) {
	m := Tight()
	if got := m.NumClusters(); got != 2 {
		t.Fatalf("NumClusters = %d, want 2", got)
	}
	for _, cl := range m.Clusters {
		if cl.RegFile.Size != TightRegs {
			t.Errorf("cluster %s register file = %d, want %d", cl.Name, cl.RegFile.Size, TightRegs)
		}
	}
	if m.TotalRegisters() >= Paper4Cluster().TotalRegisters() {
		t.Errorf("Tight has %d registers, not tighter than Paper4Cluster's %d",
			m.TotalRegisters(), Paper4Cluster().TotalRegisters())
	}
	// Dedicated memory ports: spill code must not contend with multiplies.
	if got := unitsFor(m, ClassMem); got != 4 {
		t.Errorf("units for mem = %d, want 4", got)
	}
	if got := m.BusCount(); got != 2 {
		t.Errorf("BusCount = %d, want 2", got)
	}
}

func TestUnifiedShape(t *testing.T) {
	m := Unified()
	if got := m.NumClusters(); got != 1 {
		t.Fatalf("NumClusters = %d, want 1", got)
	}
	if got := unitsFor(m, ClassALU); got != 4 {
		t.Errorf("units for alu = %d, want 4", got)
	}
	if got := m.BusLatency(); got != 0 {
		t.Errorf("BusLatency = %d, want 0 on unified machine", got)
	}
	if got := m.TotalRegisters(); got != 64 {
		t.Errorf("TotalRegisters = %d, want 64", got)
	}
}

func TestPaper4ClusterShape(t *testing.T) {
	m := Paper4Cluster()
	if got := m.NumClusters(); got != 4 {
		t.Fatalf("NumClusters = %d, want 4", got)
	}
	if got := m.BusCount(); got != 4 {
		t.Errorf("BusCount = %d, want 4", got)
	}
	if got := m.BusLatency(); got != 1 {
		t.Errorf("BusLatency = %d, want 1", got)
	}
	if got := m.TotalRegisters(); got != 64 {
		t.Errorf("TotalRegisters = %d, want 64 (same budget as unified)", got)
	}
	if got := unitsFor(m, ClassMem); got != 4 {
		t.Errorf("units for mem = %d, want 4", got)
	}
}

func TestLatencyDefaultsToOne(t *testing.T) {
	m := Unified()
	if got := m.Latency(OpClass("exotic")); got != 1 {
		t.Errorf("Latency(exotic) = %d, want conservative default 1", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, orig := range []*Machine{Unified(), Paper4Cluster()} {
		data, err := orig.ToJSON()
		if err != nil {
			t.Fatalf("%s: ToJSON: %v", orig.Name, err)
		}
		back, err := FromJSON(data)
		if err != nil {
			t.Fatalf("%s: FromJSON: %v", orig.Name, err)
		}
		if !reflect.DeepEqual(orig, back) {
			t.Errorf("%s: round trip mismatch:\norig: %+v\nback: %+v", orig.Name, orig, back)
		}
	}
}

func TestFromJSONRejectsInvalid(t *testing.T) {
	if _, err := FromJSON([]byte(`{"name":"bad","clusters":[]}`)); err == nil {
		t.Error("FromJSON accepted a machine with no clusters")
	}
	if _, err := FromJSON([]byte(`not json`)); err == nil {
		t.Error("FromJSON accepted malformed JSON")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		b    *Builder
		want string
	}{
		{"no clusters", NewBuilder("m"), "no clusters"},
		{"no units", NewBuilder("m").Cluster("c0", 16), "no functional units"},
		{"zero regs", NewBuilder("m").Latency(ClassALU, 1).Cluster("c0", 0, FU("a", ClassALU)), "must be positive"},
		{"missing latency", NewBuilder("m").Cluster("c0", 16, FU("a", ClassALU)), "no latency entry"},
		{"bad latency", NewBuilder("m").Latency(ClassALU, 0).Cluster("c0", 16, FU("a", ClassALU)), "must be positive"},
		{"dup cluster", NewBuilder("m").Latency(ClassALU, 1).
			Cluster("c0", 16, FU("a", ClassALU)).Cluster("c0", 16, FU("b", ClassALU)).Bus("x", 1, 1), "duplicate cluster"},
		{"dup unit", NewBuilder("m").Latency(ClassALU, 1).Cluster("c0", 16, FU("a", ClassALU), FU("a", ClassALU)), "duplicate unit"},
		{"multicluster no bus", NewBuilder("m").Latency(ClassALU, 1).
			Cluster("c0", 16, FU("a", ClassALU)).Cluster("c1", 16, FU("b", ClassALU)), "no inter-cluster buses"},
		{"bad bus count", NewBuilder("m").Latency(ClassALU, 1).Cluster("c0", 16, FU("a", ClassALU)).Bus("x", 0, 1), "count 0 must be positive"},
		{"dup latency", NewBuilder("m").Latency(ClassALU, 1).Latency(ClassALU, 2).Cluster("c0", 16, FU("a", ClassALU)), "duplicate latency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.b.Build()
			if err == nil {
				t.Fatalf("Build succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}
