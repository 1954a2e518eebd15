package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/statestore"
)

// fuzzRecords derives one state-log mutation and one broker-log record from
// fuzz bytes: the op kind, item count and every string and body come from
// data, so the fuzzer steers the encoder through its shapes.
func fuzzRecords(data []byte) (statestore.Mutation, brokerRecord) {
	next := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		b := data[:n]
		data = data[n:]
		return b
	}
	str := func(n int) string { return strings.ToValidUTF8(string(next(n)), "?") }
	pick := byte(0)
	if b := next(1); len(b) == 1 {
		pick = b[0]
	}
	items := int(pick>>4) % 5
	m := statestore.Mutation{At: time.Unix(1700000000, int64(pick)*1e6).UTC()}
	rec := brokerRecord{Queue: str(9)}
	switch pick % 3 {
	case 0:
		m.Op = statestore.OpAdmitTasks
		for i := 0; i < items; i++ {
			m.Tasks = append(m.Tasks, protocol.Task{ID: protocol.UUID(str(6)), Kind: protocol.KindPython, Payload: next(12), UserIdentity: str(4)})
		}
	case 1:
		m.Op, m.State = statestore.OpTransitionTasks, protocol.TaskState(str(5))
		for i := 0; i < items; i++ {
			m.TaskIDs = append(m.TaskIDs, protocol.UUID(str(6)))
		}
	case 2:
		m.Op = statestore.OpCompleteTasks
		for i := 0; i < items; i++ {
			m.Results = append(m.Results, protocol.Result{TaskID: protocol.UUID(str(6)), State: protocol.StateFailed, Output: next(12), Error: str(7)})
		}
	}
	rec.Op = "pub"
	for i := 0; i < items; i++ {
		rec.IDs = append(rec.IDs, uint64(i)<<(pick%60)+uint64(pick))
		rec.Bodies = append(rec.Bodies, next(10))
	}
	if pick&8 != 0 {
		rec.Op, rec.Bodies = "ack", nil
	}
	return m, rec
}

// viaJSON is the reference: what a record becomes through its JSON form.
func viaJSON[T any](t *testing.T, v T) string {
	t.Helper()
	first, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var back T
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func jsonOf(t *testing.T, v any) string {
	t.Helper()
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestEncodeAdmitAllocatesOnce: a 64-task admit record with 8 KiB bodies is
// written into one buffer sized for it, not grown by append (which
// allocates about twice the record's length).
func TestEncodeAdmitAllocatesOnce(t *testing.T) {
	m := statestore.Mutation{Op: statestore.OpAdmitTasks, At: time.Now()}
	for i := 0; i < 64; i++ {
		m.Tasks = append(m.Tasks, protocol.Task{ID: protocol.NewUUID()})
		m.Bodies = append(m.Bodies, bytes.Repeat([]byte{'a' + byte(i%26)}, 8<<10))
	}
	rec, err := encodeMutation(m)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := encodeMutation(m); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if ratio := perRecord / float64(len(rec)); ratio > 1.25 {
		t.Errorf("encoding a %d-byte admit record allocates %.0f bytes (%.2fx its length), want <= 1.25x", len(rec), perRecord, ratio)
	}
}

// FuzzWALRecord hardens the binary record codec: decoding arbitrary bytes
// never panics; every encodable record decodes to what its JSON form decodes
// to; every strict prefix of an encoded record is an error; and a log damaged
// at any byte replays exactly the records that precede the damage.
func FuzzWALRecord(f *testing.F) {
	// Records whose items are binary task and result bodies, as the web
	// service writes them.
	task := protocol.Task{ID: protocol.NewUUID(), FunctionID: protocol.NewUUID(), EndpointID: protocol.NewUUID(),
		Kind: protocol.KindPython, Payload: []byte("payload"), Submitted: time.Unix(1700000000, 5)}
	res := protocol.Result{TaskID: task.ID, State: protocol.StateSuccess, Output: []byte("42"), EndpointID: task.EndpointID}
	var binarySeeds [][]byte
	for _, m := range []statestore.Mutation{
		{Op: statestore.OpAdmitTasks, At: time.Unix(1700000000, 0), Tasks: []protocol.Task{task}, Bodies: [][]byte{protocol.EncodeTask(&task)}},
		{Op: statestore.OpCompleteTasks, At: time.Unix(1700000001, 0), Results: []protocol.Result{res}, Bodies: [][]byte{protocol.EncodeResult(&res)}},
	} {
		rec, err := encodeMutation(m)
		if err != nil {
			f.Fatal(err)
		}
		binarySeeds = append(binarySeeds, rec)
	}
	binarySeeds = append(binarySeeds, encodePub(protocol.TaskQueue(task.EndpointID), []uint64{1}, [][]byte{protocol.EncodeTask(&task)}))
	for _, seed := range binarySeeds {
		f.Add(seed, uint16(len(seed)*7))
	}
	for _, seed := range [][]byte{
		nil, {recAck}, {recPub, 0xff, 0xff, 0xff}, []byte(`{"op":"pub","q":"tasks.x","ids":[1],"bodies":["YQ=="]}`),
		[]byte("\x00queue-123abcdefPAYLOADPAYLOADuserabcdefPAYLOADPAYLOADuser"),
		[]byte("\x31queue-123moved-id001-id002-id003-"),
		[]byte("\x4aqueue-123id-001OUTPUTOUTPUTfailureid-002OUTPUTOUTPUTfailure"),
	} {
		f.Add(seed, uint16(len(seed)*7))
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		// Arbitrary bytes: an error or a record, never a panic.
		_, _ = decodeMutation(data)
		_, _ = decodeBrokerRecord(data)

		m, rec := fuzzRecords(data)
		enc, err := encodeMutation(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeMutation(enc)
		if err != nil {
			t.Fatalf("decode of encoded %s: %v", m.Op, err)
		}
		if g, w := jsonOf(t, got), viaJSON(t, m); g != w {
			t.Fatalf("binary %s differs from its JSON form\n got %s\nwant %s", m.Op, g, w)
		}
		benc := encodeAck(rec.Queue, rec.IDs)
		if rec.Op == "pub" {
			benc = encodePub(rec.Queue, rec.IDs, rec.Bodies)
		}
		bgot, err := decodeBrokerRecord(benc)
		if err != nil {
			t.Fatalf("decode of encoded %s: %v", rec.Op, err)
		}
		if g, w := jsonOf(t, bgot), viaJSON(t, rec); g != w {
			t.Fatalf("binary %s differs from its JSON form\n got %s\nwant %s", rec.Op, g, w)
		}
		for _, e := range [][]byte{enc, benc} {
			n := int(cut) % len(e)
			if _, err := decodeMutation(e[:n]); err == nil {
				t.Fatalf("%d-byte prefix of a %d-byte state record decoded", n, len(e))
			}
			if _, err := decodeBrokerRecord(e[:n]); err == nil {
				t.Fatalf("%d-byte prefix of a %d-byte broker record decoded", n, len(e))
			}
		}

		// A log of three records, damaged at one byte: truncated there, or
		// that byte flipped. Replay must hand back, intact, exactly the
		// records that end before the damage.
		dir := t.TempDir()
		w, err := OpenWAL(WALOptions{Dir: dir, NoSync: true, FlushEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		records := [][]byte{benc, enc, benc}
		if _, err := w.Append(records...); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		seg, file, ends := recordEnds(t, dir)
		at := int(cut) % len(file)
		if cut&1 == 0 {
			file = file[:at]
		} else {
			file[at] ^= 0x55
		}
		if err := os.WriteFile(dir+"/"+seg, file, 0o644); err != nil {
			t.Fatal(err)
		}
		intact := 0
		for _, end := range ends[1:] {
			if end <= at {
				intact++
			}
		}
		if w, err = OpenWAL(WALOptions{Dir: dir, NoSync: true, FlushEvery: -1}); err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		n, err := w.Replay(1, func(lsn uint64, payload []byte) error {
			if !bytes.Equal(payload, records[lsn-1]) {
				t.Fatalf("record %d came back changed", lsn)
			}
			return nil
		})
		if err != nil || n != intact {
			t.Fatalf("damage at byte %d of %d: replayed %d records (%v), want the %d before it", at, len(file), n, err, intact)
		}
	})
}
