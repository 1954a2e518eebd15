package mpisim

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	bad := []LaunchSpec{
		{},
		{Command: "x"},
		{Command: "x", Nodes: []string{"n"}},
		{Nodes: []string{"n"}, RanksPerNode: 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) passed", s)
		}
	}
	good := LaunchSpec{Command: "true", Nodes: []string{"a"}, RanksPerNode: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
}

func TestWorldSize(t *testing.T) {
	s := LaunchSpec{Nodes: []string{"a", "b"}, RanksPerNode: 3}
	if s.WorldSize() != 6 {
		t.Errorf("WorldSize = %d", s.WorldSize())
	}
}

func TestBuildPrefix(t *testing.T) {
	if got := BuildPrefix("", 4, []string{"n1", "n2"}); got != "mpiexec -n 4 -host n1,n2" {
		t.Errorf("default prefix = %q", got)
	}
	if got := BuildPrefix("srun", 2, []string{"n1"}); got != "srun -n 2 -w n1" {
		t.Errorf("srun prefix = %q", got)
	}
	if got := BuildPrefix("mpirun", 1, []string{"x"}); got != "mpirun -n 1 -host x" {
		t.Errorf("mpirun prefix = %q", got)
	}
}

func TestHostnameListing(t *testing.T) {
	// Paper Listing 6/7: `hostname` over 2 nodes with n ranks per node.
	// GC_NODE is the simulated hostname.
	for _, rpn := range []int{1, 2} {
		spec := LaunchSpec{
			Command:      "echo $GC_NODE",
			Nodes:        []string{"exp-14-08", "exp-14-20"},
			RanksPerNode: rpn,
		}
		res, err := Launch(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.ReturnCode != 0 {
			t.Fatalf("rc = %d", res.ReturnCode)
		}
		if len(res.Ranks) != 2*rpn {
			t.Fatalf("rpn=%d: %d ranks, want %d", rpn, len(res.Ranks), 2*rpn)
		}
		count := map[string]int{}
		for _, rank := range res.Ranks {
			count[rank.Node]++
		}
		if count["exp-14-08"] != rpn || count["exp-14-20"] != rpn {
			t.Errorf("rpn=%d: placement %v", rpn, count)
		}
		// stdout is the concatenated per-rank echo output.
		lines := strings.Split(res.ShellResult().Stdout, "\n")
		if len(lines) != 2*rpn {
			t.Errorf("stdout lines = %d, want %d", len(lines), 2*rpn)
		}
	}
}

func TestRankEnvironment(t *testing.T) {
	spec := LaunchSpec{
		Command:      "echo rank=$PMI_RANK size=$PMI_SIZE node=$GC_NODE",
		Nodes:        []string{"a", "b"},
		RanksPerNode: 2,
	}
	res, err := Launch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, rr := range res.Ranks {
		seen[rr.Stdout] = true
	}
	for _, want := range []string{
		"rank=0 size=4 node=a",
		"rank=1 size=4 node=a",
		"rank=2 size=4 node=b",
		"rank=3 size=4 node=b",
	} {
		if !seen[want] {
			t.Errorf("missing rank output %q (have %v)", want, seen)
		}
	}
}

func TestNonZeroRankPropagates(t *testing.T) {
	spec := LaunchSpec{
		Command:      `if [ "$PMI_RANK" = "1" ]; then exit 7; fi`,
		Nodes:        []string{"a"},
		RanksPerNode: 3,
	}
	res, err := Launch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReturnCode != 7 {
		t.Errorf("rc = %d, want 7", res.ReturnCode)
	}
}

func TestWalltimeKillsAllRanks(t *testing.T) {
	spec := LaunchSpec{
		Command:      "sleep 5",
		Nodes:        []string{"a", "b"},
		RanksPerNode: 1,
		Walltime:     100 * time.Millisecond,
	}
	start := time.Now()
	res, err := Launch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 3*time.Second {
		t.Error("walltime not enforced")
	}
	if res.ReturnCode != 124 {
		t.Errorf("rc = %d, want 124", res.ReturnCode)
	}
}

func TestExtraEnvOverrides(t *testing.T) {
	spec := LaunchSpec{
		Command:      "echo $APP_MODE",
		Nodes:        []string{"a"},
		RanksPerNode: 1,
		Env:          map[string]string{"APP_MODE": "production"},
	}
	res, err := Launch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[0].Stdout != "production" {
		t.Errorf("stdout = %q", res.Ranks[0].Stdout)
	}
}

func TestShellResultCmdIncludesPrefix(t *testing.T) {
	spec := LaunchSpec{Command: "true", Nodes: []string{"n1", "n2"}, RanksPerNode: 2, Launcher: "srun"}
	res, err := Launch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sr := res.ShellResult()
	if !strings.HasPrefix(sr.Cmd, "srun -n 4 -w n1,n2 ") {
		t.Errorf("cmd = %q", sr.Cmd)
	}
}

func TestLaunchInvalidSpec(t *testing.T) {
	if _, err := Launch(context.Background(), LaunchSpec{}); err == nil {
		t.Error("invalid spec launched")
	}
}

func TestManyRanksComplete(t *testing.T) {
	spec := LaunchSpec{
		Command:      "echo $PMI_RANK",
		Nodes:        []string{"a", "b", "c", "d"},
		RanksPerNode: 4,
	}
	res, err := Launch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranks) != 16 {
		t.Fatalf("ranks = %d", len(res.Ranks))
	}
	seen := map[string]bool{}
	for _, rr := range res.Ranks {
		seen[rr.Stdout] = true
	}
	if len(seen) != 16 {
		t.Errorf("distinct rank outputs = %d, want 16", len(seen))
	}
}
