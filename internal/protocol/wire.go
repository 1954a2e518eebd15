package protocol

import (
	"globuscompute/internal/trace"
)

// Structured wire bodies, one per envelope code that has one (envTypes).
// They live in protocol (not broker or engine) because the binary codec in
// binframe.go encodes each field by field; the broker aliases them for its
// handler code.

// DeclareBody names the queue of a declare, a consumer cancel, or a queue
// delete.
type DeclareBody struct {
	Queue string
}

// PublishBody is one message for a queue. No broker peer sends it (publish
// is always a publish_batch); it keeps its structured codec because
// benchmark/probes.go encodes one for the protocol.* per-layer probe.
type PublishBody struct {
	Queue string
	Body  []byte
}

// PublishBatchBody carries N messages for one queue in a single frame.
// Traces, when present, is parallel to Bodies (zero entries = untraced).
type PublishBatchBody struct {
	Queue  string
	Bodies [][]byte
	Traces []trace.Context
}

// ConsumeBody begins consuming a queue.
type ConsumeBody struct {
	Queue    string
	Prefetch int
}

// RejectBody dead-letters one delivery to "<queue>.dlq".
type RejectBody struct {
	Queue string
	Tag   uint64
}

// AckBatchBody acknowledges N tags on one queue in a single frame.
type AckBatchBody struct {
	Queue string
	Tags  []uint64
}

// DeliveryItem is one delivery inside a delivery_batch frame.
type DeliveryItem struct {
	Tag         uint64
	Body        []byte
	Redelivered bool
	Trace       trace.Context
}

// DeliveryBatchBody carries N deliveries for one queue in a single frame.
type DeliveryBatchBody struct {
	Queue string
	Items []DeliveryItem
}

// ErrorBody reports a protocol-level error.
type ErrorBody struct {
	Message string
}

// RegisterBody announces an engine manager to the interchange: its block,
// its worker slots, and its nodes.
type RegisterBody struct {
	BlockID  string
	Capacity int
	Nodes    []string
}
