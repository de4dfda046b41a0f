package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// A header's edge count only sizes a preallocation: an absurd value is
// clamped rather than allocated, and the graph is read normally.
func TestReadEdgeListHugeEdgeHint(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# nodes 2 edges 9223372036854775807\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("got %d nodes, %d edges; want 2, 1", g.NumNodes(), g.NumEdges())
	}
}

// FuzzReadEdgeList: the reader never panics, and every graph it accepts
// survives a WriteEdgeList/ReadEdgeList round trip unchanged. The node
// limit keeps a fuzzed header from sizing a multi-gigabyte CSR.
func FuzzReadEdgeList(f *testing.F) {
	for _, s := range []string{
		"# nodes 4 edges 3\n0 1\n0 2\n1 2\n",
		"0 1\n1 0\n1 1\n",
		"# nodes 3 edges -1\n",
		"-2 1\n",
		"# nodes -4 edges 0\n",
		"# nodes 2 edges 9223372036854775807\n0 1\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := readEdgeList(bytes.NewReader(data), 1<<16)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted an invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-reading the written graph: %v", err)
		}
		if !reflect.DeepEqual(g.OutStart, g2.OutStart) || !reflect.DeepEqual(g.OutDst, g2.OutDst) {
			t.Fatalf("round trip changed the graph:\nbefore %v %v\nafter  %v %v", g.OutStart, g.OutDst, g2.OutStart, g2.OutDst)
		}
	})
}
