package statestore

import (
	"testing"

	"globuscompute/internal/trace"
)

// TestTraceCompat: a task's trace context, kept as 24 raw bytes in its
// row, comes back in a snapshot image exactly as the string-ID encoding
// wrote it (the images below are that encoding's Snapshot of the same
// Restore input), and an untraced task's image has no trace.
func TestTraceCompat(t *testing.T) {
	const (
		traced   = `{"functions":null,"endpoints":null,"tasks":[{"task":{"task_id":"6ba7b812-9dad-41d1-80b4-00c04fd430c8","function_id":"6ba7b811-9dad-41d1-80b4-00c04fd430c8","endpoint_id":"6ba7b810-9dad-41d1-80b4-00c04fd430c8","kind":"python","payload":null,"resources":{},"submitted":"2023-11-14T22:13:20.123456789Z","trace":{"trace_id":"0af7651916cd43dd8448eb211c80319c","span_id":"b7ad6b7169203331"}},"state":"success","result":"NDI=","created":"2023-11-14T22:13:20.123456789Z","updated":"2023-11-14T22:13:21Z","completed":"2023-11-14T22:13:21Z"}]}`
		untraced = `{"functions":null,"endpoints":null,"tasks":[{"task":{"task_id":"6ba7b813-9dad-41d1-80b4-00c04fd430c8","function_id":"6ba7b811-9dad-41d1-80b4-00c04fd430c8","endpoint_id":"6ba7b810-9dad-41d1-80b4-00c04fd430c8","kind":"python","payload":null,"resources":{},"submitted":"2023-11-14T22:13:20.123456789Z"},"state":"waiting","created":"2023-11-14T22:13:20.123456789Z","updated":"2023-11-14T22:13:21Z","completed":"0001-01-01T00:00:00Z"}]}`
	)
	for _, img := range []string{traced, untraced} {
		s := New()
		if err := s.Restore([]byte(img)); err != nil {
			t.Fatal(err)
		}
		got, err := s.Snapshot()
		if err != nil || string(got) != img {
			t.Errorf("Snapshot after Restore = %s, %v\nwant %s", got, err, img)
		}
	}
	s := New()
	if err := s.Restore([]byte(traced)); err != nil {
		t.Fatal(err)
	}
	rec, err := s.GetTask("6ba7b812-9dad-41d1-80b4-00c04fd430c8")
	if want := trace.ParseContext("0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331"); err != nil || rec.Task.Trace != want {
		t.Errorf("restored trace %+v, %v; want %+v", rec.Task.Trace, err, want)
	}
}
