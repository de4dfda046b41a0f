package pregel

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"gmpregel/internal/graph/gen"
)

// checkpointEngine returns an engine stopped after five supersteps of a
// min-label run on an 8-ring, so it holds inboxes, active flags and
// per-step counters worth snapshotting. The graph is kept tiny because
// the fuzzer's input minimization is quadratic in the input length.
// The caller owns e.stop.
func checkpointEngine(tb testing.TB) *engine {
	const n = 8
	g := gen.Ring(n)
	j := &minLabelJob{label: make([]int64, n)}
	cfg := Config{NumWorkers: 2, Seed: 4, TraceSteps: true, CheckpointEvery: 1}.withDefaults()
	e := newEngine(g, j, cfg)
	e.cfg.MaxSupersteps = 5
	if err := e.loop(context.Background()); err == nil {
		e.stop()
		tb.Fatal("want max-supersteps error, got nil")
	}
	return e
}

// frameCheckpoint wraps payload in a checkpoint frame with a correct
// length word and checksum.
func frameCheckpoint(version byte, payload []byte) []byte {
	b := []byte{version}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint64(b, fnv64a(payload))
}

// Fields whose value would make the decoder allocate or loop far
// beyond the payload are rejected up front: a Steps count larger than
// the bytes left, and a master RNG position beyond the draws this run
// has made (replaying it would loop until that position).
func TestCheckpointOversizedFieldsRejected(t *testing.T) {
	e := checkpointEngine(t)
	defer e.stop()
	data := e.encodeState()
	// decodeWith re-frames the payload after patch edits it.
	decodeWith := func(patch func(payload []byte)) error {
		payload := append([]byte(nil), data[frameHeaderBytes:len(data)-frameTrailerBytes]...)
		patch(payload)
		return e.decodeState(frameCheckpoint(checkpointVersion, payload))
	}
	// Payload offsets: three flags and the return value precede the
	// master RNG position; the globals, the aggregators and seven Stats
	// counters follow it, then the Steps count.
	drawsOff := 3 + 8 + 8
	stepsOff := drawsOff + 8 + 4 + 8*len(e.globals) + 8 + 4 + 17*len(e.aggValues) + 7*8
	payload := data[frameHeaderBytes:]
	if got := binary.LittleEndian.Uint32(payload[stepsOff:]); int(got) != len(e.stats.Steps) {
		t.Fatalf("steps count at payload offset %d = %d, want %d", stepsOff, got, len(e.stats.Steps))
	}
	if err := decodeWith(func(p []byte) { binary.LittleEndian.PutUint32(p[stepsOff:], ^uint32(0)) }); err == nil {
		t.Error("oversized steps count decoded without error")
	}
	if got := int64(binary.LittleEndian.Uint64(payload[drawsOff:])); got != e.masterSrc.draws {
		t.Fatalf("master draws at payload offset %d = %d, want %d", drawsOff, got, e.masterSrc.draws)
	}
	if err := decodeWith(func(p []byte) { binary.LittleEndian.PutUint64(p[drawsOff:], 1<<62) }); err == nil {
		t.Error("master RNG position beyond the run decoded without error")
	}
	if err := e.decodeState(data); err != nil {
		t.Fatalf("valid decode after rejection failed: %v", err)
	}
}

// FuzzDecodeState: decoding never panics, and any input the decoder
// accepts re-encodes to exactly the same bytes. Each input is tried
// as-is and, reframed with a correct length and checksum, as a payload,
// so mutations reach the field decoder instead of stopping at the
// checksum.
func FuzzDecodeState(f *testing.F) {
	e := checkpointEngine(f)
	f.Cleanup(e.stop)
	f.Add(e.encodeState())
	overflow := make([]byte, frameHeaderBytes+frameTrailerBytes)
	overflow[0] = checkpointVersion
	binary.LittleEndian.PutUint64(overflow[1:], ^uint64(0)-15)
	f.Add(overflow)
	check := func(t *testing.T, data []byte) {
		if err := e.decodeState(data); err != nil {
			return
		}
		if got := e.encodeState(); !bytes.Equal(got, data) {
			t.Fatalf("accepted checkpoint re-encodes differently:\nin  %x\nout %x", data, got)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if len(data) >= frameHeaderBytes+frameTrailerBytes {
			check(t, frameCheckpoint(data[0], data[frameHeaderBytes:len(data)-frameTrailerBytes]))
		}
	})
}
