package pregel

import (
	"encoding/binary"
	"fmt"
	"os"

	"gmpregel/internal/graph"
)

// spillRecBytes is the fixed on-disk size of one spilled message:
// 4-byte destination id, 1-byte type tag, four 8-byte payload slots
// (slots the run does not buffer are written as 0). The record keeps
// this fixed layout whatever the run's buffer width, so SpillBytes does
// not depend on the schema. The encoding is position-independent, so a
// window of records can be read back from any offset with a single
// ReadAt.
const spillRecBytes = 4 + 1 + 8*MaxPayloadSlots

// spillStore is the governor's temp-file segment store for inboxes that
// no longer fit the memory budget. The file is created lazily, unlinked
// immediately (the OS reclaims it when the run exits, even on a crash),
// and written append-only: each spill event claims a contiguous segment
// of records. Reads use ReadAt, which is safe for concurrent use by
// stealing executors.
type spillStore struct {
	f    *os.File
	size int64 // bytes written so far (next segment offset)
}

// open lazily creates the backing temp file.
func (s *spillStore) open() error {
	if s.f != nil {
		return nil
	}
	f, err := os.CreateTemp("", "gmpregel-spill-*")
	if err != nil {
		return fmt.Errorf("pregel: cannot create spill file: %w", err)
	}
	// Unlink immediately: the fd keeps the segments alive and the file
	// can never outlive the process.
	_ = os.Remove(f.Name())
	s.f = f
	return nil
}

func (s *spillStore) close() {
	if s.f != nil {
		_ = s.f.Close()
		s.f = nil
	}
	s.size = 0
}

// writeSegment appends recs, a run of encoded records, as one
// contiguous segment and returns its byte offset.
func (s *spillStore) writeSegment(recs []byte) (off int64, err error) {
	if err := s.open(); err != nil {
		return 0, err
	}
	off = s.size
	if _, err := s.f.WriteAt(recs, off); err != nil {
		return 0, fmt.Errorf("pregel: spill write failed: %w", err)
	}
	s.size += int64(len(recs))
	return off, nil
}

// readWindow reads count records starting at record index first of the
// segment at off into raw (grown as needed).
func (s *spillStore) readWindow(raw []byte, off int64, first, count int) ([]byte, error) {
	raw = grow(raw, count*spillRecBytes)
	if count == 0 {
		return raw, nil
	}
	if _, err := s.f.ReadAt(raw, off+int64(first)*spillRecBytes); err != nil {
		return raw, fmt.Errorf("pregel: spill read failed: %w", err)
	}
	return raw, nil
}

// encodeSpill encodes wk's resident inbox as spill records into buf
// (grown as needed), rebuilding each destination from its CSR row.
func (wk *worker) encodeSpill(buf []byte) []byte {
	buf = grow(buf, wk.inTotal*spillRecBytes)
	for li, v := range wk.ids {
		for p := int(wk.inOff[li]); p < int(wk.inOff[li+1]); p++ {
			m := wk.inboxMsg(p, v)
			encodeSpillRec(buf[p*spillRecBytes:(p+1)*spillRecBytes], &m)
		}
	}
	return buf
}

// decodeSpill decodes the records in raw into payload slots (stride k)
// and, in tagged runs, type tags, growing pay and typ as needed.
func (wk *worker) decodeSpill(raw []byte, pay []uint64, typ []uint8) ([]uint64, []uint8) {
	n := len(raw) / spillRecBytes
	k := wk.k
	pay = grow(pay, n*k)
	if wk.tagged {
		typ = grow(typ, n)
	}
	var m Msg
	for i := 0; i < n; i++ {
		decodeSpillRec(raw[i*spillRecBytes:(i+1)*spillRecBytes], &m)
		copy(pay[i*k:(i+1)*k], m.V[:k])
		if wk.tagged {
			typ[i] = m.Type
		}
	}
	return pay, typ
}

// inboxMsg rebuilds resident inbox message p, addressed to v (its row's
// vertex); slots the run does not buffer are 0.
func (wk *worker) inboxMsg(p int, v graph.NodeID) Msg {
	m := Msg{Dst: v}
	if wk.tagged {
		m.Type = wk.inTyp[p]
	}
	copy(m.V[:wk.k], wk.inPay[p*wk.k:(p+1)*wk.k])
	return m
}

func encodeSpillRec(b []byte, m *Msg) {
	binary.LittleEndian.PutUint32(b[0:4], uint32(m.Dst))
	b[4] = m.Type
	for s := 0; s < MaxPayloadSlots; s++ {
		binary.LittleEndian.PutUint64(b[5+8*s:], m.V[s])
	}
}

func decodeSpillRec(b []byte, m *Msg) {
	m.Dst = graph.NodeID(int32(binary.LittleEndian.Uint32(b[0:4])))
	m.Type = b[4]
	for s := 0; s < MaxPayloadSlots; s++ {
		m.V[s] = binary.LittleEndian.Uint64(b[5+8*s:])
	}
}
