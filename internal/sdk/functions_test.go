package sdk

import (
	"testing"

	"globuscompute/internal/protocol"
)

// TestEnsureRegisteredHitAllocs: once a function's ID is cached for a
// client, resolving it again allocates nothing, for every function kind.
func TestEnsureRegisteredHitAllocs(t *testing.T) {
	c := &Client{}
	py := &PythonFunction{Entrypoint: "add"}
	sh := NewShellFunction("echo {x}")
	mpi := NewMPIFunction("hostname")
	for _, rc := range []*registrationCache{&py.reg, &sh.reg, &mpi.reg} {
		rc.ids = map[*Client]protocol.UUID{c: protocol.NewUUID()}
	}
	for name, ensure := range map[string]func(*Client) (protocol.UUID, error){
		"python": py.ensureRegistered, "shell": sh.ensureRegistered, "mpi": mpi.ensureRegistered,
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ensure(c); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations on a cache hit, want 0", name, allocs)
		}
	}
}
