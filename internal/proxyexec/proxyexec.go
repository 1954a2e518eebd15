// Package proxyexec is the ProxyStore executor wrapper the paper describes
// (§V-B): it wraps a Globus Compute executor so task arguments above a
// size policy are automatically proxied into a store (only the reference
// passes through the cloud), and proxied results resolve transparently
// when futures are read. Worker-side resolution happens in the endpoint
// runner (endpoint.RunnerConfig.Proxies).
package proxyexec

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"globuscompute/internal/proxystore"
	"globuscompute/internal/sdk"
)

// Executor wraps an sdk.Executor with argument/result proxying.
type Executor struct {
	inner  *sdk.Executor
	store  *proxystore.Store
	reg    *proxystore.Registry
	policy proxystore.Policy
}

// Wrap builds the proxying wrapper. The registry must be able to resolve
// references created against store (register the store in it).
func Wrap(inner *sdk.Executor, store *proxystore.Store, reg *proxystore.Registry, policy proxystore.Policy) (*Executor, error) {
	if inner == nil || store == nil || reg == nil {
		return nil, errors.New("proxyexec: executor, store, and registry are all required")
	}
	if policy.MinSize <= 0 {
		return nil, errors.New("proxyexec: policy requires a positive MinSize")
	}
	return &Executor{inner: inner, store: store, reg: reg, policy: policy}, nil
}

// Submit proxies oversized arguments by policy, then submits.
func (e *Executor) Submit(fn *sdk.PythonFunction, args ...any) (*sdk.Future, error) {
	prepared := make([]any, len(args))
	for i, a := range args {
		raw, proxied, err := proxystore.MaybeProxy(e.store, e.policy, a)
		if err != nil {
			return nil, fmt.Errorf("proxyexec: arg %d: %w", i, err)
		}
		if proxied {
			prepared[i] = json.RawMessage(raw)
		} else {
			prepared[i] = a
		}
	}
	return e.inner.Submit(fn, prepared...)
}

// Result reads a future and transparently resolves a proxied result.
func (e *Executor) Result(ctx context.Context, fut *sdk.Future) ([]byte, error) {
	out, err := fut.Result(ctx)
	if err != nil {
		return nil, err
	}
	resolved, _, err := proxystore.MaybeResolve(e.reg, json.RawMessage(out))
	if err != nil {
		return nil, fmt.Errorf("proxyexec: resolve result: %w", err)
	}
	return resolved, nil
}

// Close closes the wrapped executor.
func (e *Executor) Close() { e.inner.Close() }
