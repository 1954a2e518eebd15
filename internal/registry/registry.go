// Package registry implements the worker-side callable registry: the Go
// substitute for deserializing pickled Python functions. A registered Globus
// Compute function of kind "python" carries an entrypoint name; workers
// resolve that name here and invoke the Go implementation with the
// JSON-encoded arguments from the task payload.
//
// This preserves the register-once / invoke-by-UUID model: the web service
// stores an immutable FunctionRecord whose definition names an entrypoint,
// and the endpoint can only run entrypoints present in its registry —
// mirroring how a Python endpoint can only run functions whose dependencies
// resolve in its environment.
package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// ErrNotFound is returned when an entrypoint is not registered.
var ErrNotFound = errors.New("registry: entrypoint not found")

// Callable is the signature every registered entrypoint implements. args
// and kwargs arrive as raw JSON, mirroring positional and keyword arguments;
// the return value is JSON-serialized into the task result.
type Callable func(ctx context.Context, args []json.RawMessage, kwargs map[string]json.RawMessage) (any, error)

// Registry maps entrypoint names to callables. Safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	funcs map[string]Callable
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{funcs: make(map[string]Callable)}
}

// Register binds name to fn. Re-registering a name replaces the previous
// binding (the endpoint's environment was "updated").
func (r *Registry) Register(name string, fn Callable) error {
	if name == "" {
		return errors.New("registry: empty entrypoint name")
	}
	if fn == nil {
		return errors.New("registry: nil callable")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
	return nil
}

// Lookup resolves an entrypoint.
func (r *Registry) Lookup(name string) (Callable, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.funcs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return fn, nil
}

// Invoke resolves name and calls it with the given arguments.
func (r *Registry) Invoke(ctx context.Context, name string, args []json.RawMessage, kwargs map[string]json.RawMessage) (any, error) {
	fn, err := r.Lookup(name)
	if err != nil {
		return nil, err
	}
	return fn(ctx, args, kwargs)
}

// Builtins returns a registry preloaded with the small function library the
// examples and benchmarks use.
func Builtins() *Registry {
	r := New()
	r.Register("identity", func(_ context.Context, args []json.RawMessage, _ map[string]json.RawMessage) (any, error) {
		if len(args) == 0 {
			return nil, nil
		}
		var v any
		if err := json.Unmarshal(args[0], &v); err != nil {
			return nil, err
		}
		return v, nil
	})
	r.Register("add", func(_ context.Context, args []json.RawMessage, _ map[string]json.RawMessage) (any, error) {
		sum := 0.0
		for i, a := range args {
			var x float64
			if err := json.Unmarshal(a, &x); err != nil {
				return nil, fmt.Errorf("registry: add arg %d: %w", i, err)
			}
			sum += x
		}
		return sum, nil
	})
	r.Register("fail", func(_ context.Context, args []json.RawMessage, _ map[string]json.RawMessage) (any, error) {
		msg := "task failed"
		if len(args) > 0 {
			var s string
			if json.Unmarshal(args[0], &s) == nil && s != "" {
				msg = s
			}
		}
		return nil, errors.New(msg)
	})
	r.Register("echo_kwargs", func(_ context.Context, _ []json.RawMessage, kwargs map[string]json.RawMessage) (any, error) {
		out := make(map[string]any, len(kwargs))
		for k, v := range kwargs {
			var x any
			if err := json.Unmarshal(v, &x); err != nil {
				return nil, err
			}
			out[k] = x
		}
		return out, nil
	})
	return r
}
