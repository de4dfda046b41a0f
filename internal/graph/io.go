package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph as a plain-text edge list:
// a header line "# nodes N edges M" followed by one "src dst" pair per
// line. The format is the interchange format of cmd/graphgen.
func WriteEdgeList(w io.Writer, g *Directed) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes %d edges %d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, d := range g.OutNbrs(v) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", v, d); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format produced by WriteEdgeList. Lines
// beginning with '#' other than the header are ignored, as are blank
// lines. If no header is present, the vertex count is inferred as
// 1 + max endpoint. Negative counts or vertex IDs, and node counts
// beyond the NodeID range, are errors.
func ReadEdgeList(r io.Reader) (*Directed, error) {
	return readEdgeList(r, math.MaxInt32)
}

// maxEdgeHint caps the slice capacity reserved from a header's edge
// count, so a corrupt header cannot force a giant allocation up front;
// larger graphs grow past it as their edges are read.
const maxEdgeHint = 1 << 16

// readEdgeList is ReadEdgeList with an explicit bound on the vertex
// count, which sizes the CSR arrays.
func readEdgeList(r io.Reader, maxNodes int) (*Directed, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	n := -1
	maxID := NodeID(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			var hn, hm int
			if _, err := fmt.Sscanf(line, "# nodes %d edges %d", &hn, &hm); err == nil {
				if hn < 0 || hm < 0 {
					return nil, fmt.Errorf("graph: line %d: negative count in header %q", lineNo, line)
				}
				n = hn
				edges = make([]Edge, 0, min(hm, maxEdgeHint))
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'src dst', got %q", lineNo, line)
		}
		s, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src %q: %v", lineNo, fields[0], err)
		}
		d, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst %q: %v", lineNo, fields[1], err)
		}
		if s < 0 || d < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id in %q", lineNo, line)
		}
		e := Edge{NodeID(s), NodeID(d)}
		if e.Src > maxID {
			maxID = e.Src
		}
		if e.Dst > maxID {
			maxID = e.Dst
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		n = int(maxID) + 1
	}
	if n > maxNodes {
		return nil, fmt.Errorf("graph: node count %d exceeds the limit %d", n, maxNodes)
	}
	if int(maxID) >= n {
		return nil, fmt.Errorf("graph: endpoint %d exceeds declared node count %d", maxID, n)
	}
	return FromEdges(n, edges), nil
}
