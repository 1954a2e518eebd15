package registry

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
)

func raw(v any) json.RawMessage {
	b, _ := json.Marshal(v)
	return b
}

// constant returns a Callable that ignores its arguments and returns v.
func constant(v int) Callable {
	return func(context.Context, []json.RawMessage, map[string]json.RawMessage) (any, error) { return v, nil }
}

func TestRegisterLookupInvoke(t *testing.T) {
	r := New()
	err := r.Register("double", func(_ context.Context, args []json.RawMessage, _ map[string]json.RawMessage) (any, error) {
		var x float64
		if err := json.Unmarshal(args[0], &x); err != nil {
			return nil, err
		}
		return 2 * x, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Invoke(context.Background(), "double", []json.RawMessage{raw(21)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.(float64) != 42 {
		t.Errorf("Invoke = %v, want 42", got)
	}
}

func TestLookupMissing(t *testing.T) {
	r := New()
	if _, err := r.Lookup("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if _, err := r.Invoke(context.Background(), "nope", nil, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("Invoke err = %v, want ErrNotFound", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := New()
	if err := r.Register("", constant(0)); err == nil {
		t.Error("empty name registered")
	}
	if err := r.Register("x", nil); err == nil {
		t.Error("nil callable registered")
	}
}

func TestReRegisterReplaces(t *testing.T) {
	r := New()
	r.Register("f", constant(1))
	r.Register("f", constant(2))
	got, err := r.Invoke(context.Background(), "f", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.(int) != 2 {
		t.Errorf("Invoke = %v, want 2 (replacement)", got)
	}
}

func TestBuiltins(t *testing.T) {
	r := Builtins()
	ctx := context.Background()

	got, err := r.Invoke(ctx, "add", []json.RawMessage{raw(1), raw(2), raw(3.5)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.(float64) != 6.5 {
		t.Errorf("add = %v", got)
	}

	got, err = r.Invoke(ctx, "identity", []json.RawMessage{raw("pass-through")}, nil)
	if err != nil || got.(string) != "pass-through" {
		t.Errorf("identity = %v, %v", got, err)
	}
	if got, err := r.Invoke(ctx, "identity", nil, nil); err != nil || got != nil {
		t.Errorf("identity no-arg = %v, %v", got, err)
	}

	if _, err := r.Invoke(ctx, "fail", []json.RawMessage{raw("boom")}, nil); err == nil || err.Error() != "boom" {
		t.Errorf("fail = %v", err)
	}
	if _, err := r.Invoke(ctx, "fail", nil, nil); err == nil {
		t.Error("fail without message succeeded")
	}

	got, err = r.Invoke(ctx, "echo_kwargs", nil, map[string]json.RawMessage{"k": raw("v")})
	if err != nil {
		t.Fatal(err)
	}
	if got.(map[string]any)["k"].(string) != "v" {
		t.Errorf("echo_kwargs = %v", got)
	}

	if _, err := r.Invoke(ctx, "add", []json.RawMessage{raw("nan")}, nil); err == nil {
		t.Error("add with string succeeded")
	}
}
