package protocol

import (
	"globuscompute/internal/trace"
)

// Wire bodies for the framed broker protocol. They live in protocol (not
// broker) because the binary hot-path codec in binframe.go needs structured
// knowledge of each body to encode it compactly; the broker aliases them so
// its handler code reads unchanged. Byte slices marshal as base64 under
// encoding/json; the binary codec carries them raw.

// DeclareBody declares or deletes a queue, and cancels consumers (drain).
type DeclareBody struct {
	Queue string `json:"queue"`
	// Bin, on a declare request, advertises that the sender can decode
	// binary hot-path frames (see docs/PROTOCOL.md "Binary encoding"). Old
	// servers ignore the field; old clients never set it.
	Bin bool `json:"bin,omitempty"`
}

// PublishBody appends one message to a queue.
type PublishBody struct {
	Queue string `json:"queue"`
	Body  []byte `json:"body"`
}

// PublishBatchBody carries N messages for one queue in a single frame.
// Traces, when present, is parallel to Bodies (nil entries = untraced).
type PublishBatchBody struct {
	Queue  string           `json:"queue"`
	Bodies [][]byte         `json:"bodies"`
	Traces []*trace.Context `json:"traces,omitempty"`
}

// ConsumeBody begins consuming a queue.
type ConsumeBody struct {
	Queue    string `json:"queue"`
	Prefetch int    `json:"prefetch"`
	// Batch opts this consumer into delivery_batch frames. Old servers
	// ignore the field and keep sending plain deliveries; old clients never
	// set it, so they keep receiving plain deliveries from new servers.
	Batch bool `json:"batch,omitempty"`
	// MaxBatch bounds deliveries per delivery_batch frame (default 64).
	MaxBatch int `json:"max_batch,omitempty"`
	// Bin advertises that the sender can decode binary hot-path frames.
	Bin bool `json:"bin,omitempty"`
}

// AckBody acknowledges or rejects one delivery.
type AckBody struct {
	Queue string `json:"queue"`
	Tag   uint64 `json:"tag"`
	// DeadLetter turns a nack into a reject (dead-letter) request.
	DeadLetter bool `json:"dead_letter,omitempty"`
}

// AckBatchBody acknowledges N tags on one queue in a single frame.
type AckBatchBody struct {
	Queue string   `json:"queue"`
	Tags  []uint64 `json:"tags"`
}

// DeliveryBody is one delivered message.
type DeliveryBody struct {
	Queue       string `json:"queue"`
	Tag         uint64 `json:"tag"`
	Body        []byte `json:"body"`
	Redelivered bool   `json:"redelivered,omitempty"`
}

// DeliveryItem is one delivery inside a delivery_batch frame.
type DeliveryItem struct {
	Tag         uint64         `json:"tag"`
	Body        []byte         `json:"body"`
	Redelivered bool           `json:"redelivered,omitempty"`
	Trace       *trace.Context `json:"trace,omitempty"`
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

// OKBody is the reply to a successful request. It is empty except on
// negotiation replies, where Bin confirms the server will both read and
// write binary hot-path frames on this connection.
type OKBody struct {
	Bin bool `json:"bin,omitempty"`
}
