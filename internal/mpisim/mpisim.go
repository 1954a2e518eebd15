// Package mpisim simulates an MPI launcher (mpiexec/srun): given a command,
// a node list, and ranks per node, it launches one process per rank with
// PMI-style environment variables (rank, world size, host) and aggregates
// per-rank output. It is the execution backend for MPIFunctions and the
// substitute for a real MPI runtime on a cluster.
//
// Commands observe their placement through the environment:
//
//	GC_NODE   the node this rank is pinned to (the `hostname` equivalent)
//	PMI_RANK / OMPI_COMM_WORLD_RANK   the rank index
//	PMI_SIZE / OMPI_COMM_WORLD_SIZE   the world size
package mpisim

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"globuscompute/internal/protocol"
	"globuscompute/internal/shellfn"
)

// LaunchSpec describes one MPI application launch.
type LaunchSpec struct {
	// Command is the application command line (no launcher prefix).
	Command string
	// Nodes are the nodes granted to this application.
	Nodes []string
	// RanksPerNode is the number of ranks placed on each node.
	RanksPerNode int
	// Launcher names the launcher being simulated (mpiexec, srun); it only
	// affects the rendered prefix string.
	Launcher string
	// Walltime bounds the whole application (all ranks).
	Walltime time.Duration
	// SnippetLines bounds per-rank captured lines.
	SnippetLines int
	// Env adds environment variables to every rank.
	Env map[string]string
	// RunDir is the working directory for every rank.
	RunDir string
}

// Validate checks the spec is launchable.
func (s LaunchSpec) Validate() error {
	if s.Command == "" {
		return errors.New("mpisim: empty command")
	}
	if len(s.Nodes) == 0 {
		return errors.New("mpisim: no nodes")
	}
	if s.RanksPerNode <= 0 {
		return errors.New("mpisim: ranks per node must be positive")
	}
	return nil
}

// WorldSize returns the total rank count.
func (s LaunchSpec) WorldSize() int { return len(s.Nodes) * s.RanksPerNode }

// BuildPrefix renders the launcher prefix the engine substitutes for
// $PARSL_MPI_PREFIX, e.g. "mpiexec -n 4 -host node-000,node-001".
func BuildPrefix(launcher string, nranks int, nodes []string) string {
	if launcher == "" {
		launcher = "mpiexec"
	}
	hosts := strings.Join(nodes, ",")
	switch launcher {
	case "srun":
		return fmt.Sprintf("srun -n %d -w %s", nranks, hosts)
	default:
		return fmt.Sprintf("%s -n %d -host %s", launcher, nranks, hosts)
	}
}

// RankResult is one rank's outcome.
type RankResult struct {
	Rank       int
	Node       string
	ReturnCode int
	Stdout     string
	Stderr     string
}

// Result aggregates an application run.
type Result struct {
	Spec   LaunchSpec
	Ranks  []RankResult
	Prefix string
	// ReturnCode is 0 if all ranks succeeded, otherwise the first nonzero
	// rank code (walltime kills report 124 as with ShellFunctions).
	ReturnCode int
	Elapsed    time.Duration
}

// ShellResult folds the per-rank outputs into the ShellFunction result
// shape: stdout/stderr are the rank outputs concatenated in rank order, as
// in the paper's Listing 7.
func (r Result) ShellResult() protocol.ShellResult {
	var out, errOut []string
	for _, rank := range r.Ranks {
		if rank.Stdout != "" {
			out = append(out, rank.Stdout)
		}
		if rank.Stderr != "" {
			errOut = append(errOut, rank.Stderr)
		}
	}
	return protocol.ShellResult{
		ReturnCode: r.ReturnCode,
		Cmd:        r.Prefix + " " + r.Spec.Command,
		Stdout:     strings.Join(out, "\n"),
		Stderr:     strings.Join(errOut, "\n"),
	}
}

// Launch runs the application: one process per rank, ranks round-robin
// block-wise over nodes (node 0 gets ranks 0..rpn-1, etc.). It returns when
// every rank finishes.
func Launch(ctx context.Context, spec LaunchSpec) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	world := spec.WorldSize()
	res := Result{
		Spec:   spec,
		Ranks:  make([]RankResult, world),
		Prefix: BuildPrefix(spec.Launcher, world, spec.Nodes),
	}
	if spec.Walltime > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Walltime)
		defer cancel()
	}
	start := time.Now()
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			node := spec.Nodes[rank/spec.RanksPerNode]
			env := map[string]string{
				"GC_NODE":              node,
				"PMI_RANK":             strconv.Itoa(rank),
				"PMI_SIZE":             strconv.Itoa(world),
				"OMPI_COMM_WORLD_RANK": strconv.Itoa(rank),
				"OMPI_COMM_WORLD_SIZE": strconv.Itoa(world),
				"SLURM_PROCID":         strconv.Itoa(rank),
				"SLURM_NTASKS":         strconv.Itoa(world),
				"SLURMD_NODENAME":      node,
			}
			for k, v := range spec.Env {
				env[k] = v
			}
			sr, err := shellfn.Execute(ctx, spec.Command, shellfn.Options{
				RunDir:       spec.RunDir,
				SnippetLines: spec.SnippetLines,
				Env:          env,
			})
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("mpisim: rank %d: %w", rank, err)
				}
				errMu.Unlock()
				return
			}
			res.Ranks[rank] = RankResult{
				Rank: rank, Node: node,
				ReturnCode: sr.ReturnCode,
				Stdout:     sr.Stdout, Stderr: sr.Stderr,
			}
		}(rank)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	if firstErr != nil {
		return res, firstErr
	}
	for _, rank := range res.Ranks {
		if rank.ReturnCode != 0 {
			res.ReturnCode = rank.ReturnCode
			break
		}
	}
	return res, nil
}
