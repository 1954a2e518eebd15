package fix

// Config holds one knob of each kind the guard tells apart.
type Config struct {
	// DefaultOnly is set only by New's defaulting.
	DefaultOnly int
	// TestOnly is set only by a test.
	TestOnly int
	// Cmd is set by cmd/app.
	Cmd int
	// File is decoded from a user file.
	File string `json:"file"`
	// Sandbox is set from a spec, beside a defaulting if on another field.
	Sandbox bool
	// Kept is set nowhere, but the allowlist names what needs it.
	Kept int
}

// Spec is a task's request.
type Spec struct {
	Sandbox bool
}

// New fills defaults and applies the spec.
func New(c Config, spec Spec) Config {
	if c.DefaultOnly == 0 {
		c.DefaultOnly = 1
	}
	if spec.Sandbox {
		c.Sandbox = true
	}
	return c
}
