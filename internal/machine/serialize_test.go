package machine

import (
	"bytes"
	"testing"

	"gmpregel/internal/graph"
	"gmpregel/internal/pregel"
)

func TestSerializeRoundTripHandBuilt(t *testing.T) {
	for _, p := range []*Program{avgProgram(), nbrSumProgram(), floatNodePayloadProgram(), loopProgram(), relaxProgram(), opsProgram()} {
		data, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("%s: encode: %v", p.Name, err)
		}
		p2, err := DecodeProgram(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", p.Name, err)
		}
		if p.String() != p2.String() {
			t.Errorf("%s: listing changed across round trip:\n--- original ---\n%s\n--- decoded ---\n%s",
				p.Name, p, p2)
		}
	}
}

func TestSerializedProgramRunsIdentically(t *testing.T) {
	p := relaxProgram()
	data, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromEdges(6, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}, {Src: 0, Dst: 5},
	})
	b := Bindings{
		NodePropInt: map[string][]int64{"dist": {0, 10, 20, 30, 40, 50}},
		EdgePropInt: map[string][]int64{"len": {1, 2, 3, 4, 5}},
	}
	cfg := pregel.Config{NumWorkers: 2}
	r1, err := Run(p, g, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(p2, g, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := r1.NodePropInt("dist_nxt")
	d2, _ := r2.NodePropInt("dist_nxt")
	for v := range d1 {
		if d1[v] != d2[v] {
			t.Fatalf("dist_nxt[%d] = %d vs %d after reload", v, d1[v], d2[v])
		}
	}
	if r1.Stats.NetworkBytes != r2.Stats.NetworkBytes {
		t.Error("stats differ after reload")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		[]byte("not json"),
		[]byte(`{"name":"x","nodes":[{}]}`), // empty node
		[]byte(`{"name":"x","nodes":[{"master":{"term":0,"then":9}}]}`), // bad target
		[]byte(`{"name":"x","nodes":[{"vertex":{"next":0,"body":[{"k":"bogus"}]}}]}`),
		// Incomplete expressions, undeclared slots, and references or
		// statements illegal where they appear would otherwise panic in
		// the decoder or later in Run.
		[]byte(`{"nodes":[{"vertex":{"body":[{"k":"sendTo","payload":[{"k":"binary"}]}]}}]}`),
		[]byte(`{"nodes":[{"vertex":{"body":[{"k":"if","cond":{"k":"binary","l":{"k":"prop"},"r":{"k":"scalar"}}}]}}]}`),
		[]byte(`{"aggs":[{"name":"a"}],"nodes":[{"vertex":{"body":[{"k":"if","cond":{"k":"agg"}}]}}]}`),
		[]byte(`{"props":[{"Name":"p"}],"nodes":[{"master":{"term":2,"stmts":[{"k":"return","rhs":{"k":"prop"}}]}}]}`),
		[]byte(`{"nodes":[{"master":{"term":2,"stmts":[{"k":"setScalar","slot":3,"rhs":{"k":"const"}}]}}]}`),
		[]byte(`{"props":[{"Name":"p"}],"nodes":[{"master":{"term":2,"stmts":[{"k":"setProp","rhs":{"k":"const"}}]}}]}`),
		[]byte(`{"scalars":[{"Name":"s"}],"nodes":[{"vertex":{"body":[{"k":"setScalar","rhs":{"k":"const"}}]}}]}`),
		[]byte(`{"msgs":[{"Name":"m","Fields":[0]}],"props":[{"Name":"p"}],"nodes":[{"vertex":{"body":[{"k":"forMsgs","body":[{"k":"setProp","rhs":{"k":"msgField","slot":1}}]}]}}]}`),
		[]byte(`{"msgs":[{"Name":"m","Fields":[0]}],"nodes":[{"vertex":{"body":[{"k":"sendToNbrs","payload":[{"k":"const"},{"k":"const"}]}]}}]}`),
		[]byte(`{"props":[{"Name":"p"}],"nodes":[{"vertex":{"body":[{"k":"setProp","rhs":{"k":"builtin","op":99}}]}}]}`),
		[]byte(`{"scalars":[{"Name":"s","Kind":7}],"nodes":[{"master":{"term":2}}]}`),
	}
	for i, data := range cases {
		if _, err := DecodeProgram(data); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

func TestSerializeCarriesAnalysisSummary(t *testing.T) {
	p := avgProgram()
	p.Analysis = &AnalysisSummary{
		Errors: 0, Warnings: 2, Infos: 3,
		Codes: []string{"GM2002", "GM4001"}, WarningFree: false,
	}
	data, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Analysis == nil {
		t.Fatal("analysis summary lost in round trip")
	}
	if p2.Analysis.Warnings != 2 || p2.Analysis.Infos != 3 || p2.Analysis.WarningFree ||
		len(p2.Analysis.Codes) != 2 || p2.Analysis.Codes[0] != "GM2002" {
		t.Errorf("analysis summary drifted: %+v", p2.Analysis)
	}
}

// FuzzDecodeProgram: decoding never panics; any program the decoder
// accepts re-encodes, and that encoding decodes and re-encodes to the
// same bytes; and running it on a small graph returns or fails but never
// panics. MaxSupersteps bounds programs that never halt.
func FuzzDecodeProgram(f *testing.F) {
	g := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 2, Dst: 3}, {Src: 3, Dst: 3},
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProgram(data)
		if err != nil {
			return
		}
		enc, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("accepted program does not re-encode: %v", err)
		}
		p2, err := DecodeProgram(enc)
		if err != nil {
			t.Fatalf("re-encoded program rejected: %v", err)
		}
		if enc2, err := EncodeProgram(p2); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point (err %v)", err)
		}
		_, _ = Run(p, g, Bindings{}, pregel.Config{NumWorkers: 2, Seed: 1, MaxSupersteps: 32})
	})
}
