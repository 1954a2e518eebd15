package protocol

import (
	"globuscompute/internal/trace"
)

// Wire bodies for the framed broker protocol. They live in protocol (not
// broker) because the binary codec in binframe.go needs structured
// knowledge of each body to encode it compactly; the broker aliases them
// for its handler code. Byte slices marshal as base64 under encoding/json;
// the binary codec carries them raw.

// DeclareBody declares or deletes a queue, and cancels consumers (drain).
type DeclareBody struct {
	Queue string `json:"queue"`
}

// PublishBody is one message for a queue. No broker peer sends it (publish
// is always a publish_batch); it keeps its structured codec because
// benchmark/probes.go encodes one for the protocol.* per-layer probe and
// FuzzCodecEquivalence covers it.
type PublishBody struct {
	Queue string `json:"queue"`
	Body  []byte `json:"body"`
}

// PublishBatchBody carries N messages for one queue in a single frame.
// Traces, when present, is parallel to Bodies (zero entries = untraced).
type PublishBatchBody struct {
	Queue  string          `json:"queue"`
	Bodies [][]byte        `json:"bodies"`
	Traces []trace.Context `json:"traces,omitempty"`
}

// ConsumeBody begins consuming a queue.
type ConsumeBody struct {
	Queue    string `json:"queue"`
	Prefetch int    `json:"prefetch"`
}

// AckBody rejects one delivery: a nack requeues it, or dead-letters it when
// DeadLetter is set.
type AckBody struct {
	Queue      string `json:"queue"`
	Tag        uint64 `json:"tag"`
	DeadLetter bool   `json:"dead_letter,omitempty"`
}

// AckBatchBody acknowledges N tags on one queue in a single frame.
type AckBatchBody struct {
	Queue string   `json:"queue"`
	Tags  []uint64 `json:"tags"`
}

// DeliveryItem is one delivery inside a delivery_batch frame.
type DeliveryItem struct {
	Tag         uint64        `json:"tag"`
	Body        []byte        `json:"body"`
	Redelivered bool          `json:"redelivered,omitempty"`
	Trace       trace.Context `json:"trace,omitzero"`
}

// DeliveryBatchBody carries N deliveries for one queue in a single frame.
type DeliveryBatchBody struct {
	Queue string         `json:"queue"`
	Items []DeliveryItem `json:"items"`
}

// ErrorBody reports a protocol-level error.
type ErrorBody struct {
	Message string `json:"message"`
}
