// Real-time analysis pipeline: the paper's §VI APS pattern — Globus
// Flows orchestrating data transfer, Globus Compute analysis, metadata
// extraction, and result publication, as beamline data arrives.
//
//	go run ./examples/realtime
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/core"
	"globuscompute/internal/flows"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/protocol"
	"globuscompute/internal/sdk"
	"globuscompute/internal/transfer"
)

func main() {
	// The computing facility: full Globus Compute stack + an endpoint.
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	tok, err := tb.IssueToken("beamline@aps.anl.gov", "anl")
	if err != nil {
		log.Fatal(err)
	}
	endpointID, err := tb.StartEndpoint(core.EndpointOptions{
		Name: "alcf-endpoint", Owner: "beamline@aps.anl.gov", Workers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	client := sdk.NewClient(tb.ServiceAddr(), tok.Value)
	bc, err := broker.Connect(tb.BrokerSrv.Addr(), "")
	if err != nil {
		log.Fatal(err)
	}
	defer bc.Close()
	ex, err := sdk.NewExecutor(sdk.ExecutorConfig{
		Client: client, EndpointID: endpointID, Conn: bc,
		Objects: objectstore.NewClient(tb.ObjectsSrv.Addr()),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ex.Close()

	// The data fabric: instrument storage, compute scratch, and the
	// publication portal, as Globus Connect endpoints.
	ts := transfer.NewService()
	defer ts.Close()
	scratchBase, err := os.MkdirTemp("", "aps-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(scratchBase)
	instrument, _ := ts.CreateEndpoint("aps-detector", filepath.Join(scratchBase, "detector"))
	scratch, _ := ts.CreateEndpoint("alcf-scratch", filepath.Join(scratchBase, "scratch"))
	portal, _ := ts.CreateEndpoint("data-portal", filepath.Join(scratchBase, "portal"))

	// The per-acquisition flow: stage in -> analyze -> extract metadata ->
	// publish.
	analyze := sdk.NewShellFunction(
		"wc -c < {input} > {output} && echo analyzed $(cat {output}) bytes")
	pipeline := flows.Flow{
		Name: "aps-analysis",
		Actions: []flows.Action{
			flows.TransferAction("stage-in", ts, func(s flows.State) (transfer.Spec, error) {
				return transfer.Spec{
					Source: instrument.ID, Destination: scratch.ID,
					Items: []transfer.Item{{
						SourcePath: s["acquisition"].(string),
						DestPath:   s["acquisition"].(string),
					}},
				}, nil
			}, "stage_in_task"),
			flows.ShellAction("analyze", ex, analyze, func(s flows.State) map[string]string {
				name := s["acquisition"].(string)
				return map[string]string{
					"input":  filepath.Join(scratch.Root, name),
					"output": filepath.Join(scratch.Root, name+".result"),
				}
			}, "analysis_log"),
			flows.ComputeAction("extract-metadata", ex,
				&sdk.PythonFunction{Entrypoint: "echo_kwargs"}, nil, ""),
			flows.TransferAction("publish", ts, func(s flows.State) (transfer.Spec, error) {
				name := s["acquisition"].(string)
				return transfer.Spec{
					Source: scratch.ID, Destination: portal.ID,
					Items: []transfer.Item{{SourcePath: name + ".result", DestPath: name + ".result"}},
				}, nil
			}, ""),
		},
	}

	// Acquisitions arrive; each fires a flow (fire and forget, as the
	// beamline does with Globus Flows).
	runner := flows.NewRunner()
	defer runner.Close()
	type started struct {
		name string
		id   protocol.UUID
	}
	var runs []started
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("scan-%03d.raw", i)
		data := make([]byte, 1024*i)
		if err := os.WriteFile(filepath.Join(instrument.Root, name), data, 0o644); err != nil {
			log.Fatal(err)
		}
		id, err := runner.Start(pipeline, flows.State{"acquisition": name})
		if err != nil {
			log.Fatal(err)
		}
		runs = append(runs, started{name: name, id: id})
		fmt.Printf("acquisition %s -> flow run %s\n", name, id[:8])
	}

	// Watch the runs complete.
	for _, r := range runs {
		info, err := runner.Wait(r.id, 2*time.Minute)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %s in %d actions (%s)\n", r.name, info.Status, len(info.Log),
			info.Completed.Sub(info.Started).Round(time.Millisecond))
		for _, a := range info.Log {
			fmt.Printf("    %-18s %s\n", a.Name, a.Elapsed.Round(time.Millisecond))
		}
	}

	// The portal now holds the published results.
	entries, _ := os.ReadDir(portal.Root)
	fmt.Printf("published artifacts: %d\n", len(entries))
	for _, ent := range entries {
		fmt.Printf("    %s\n", ent.Name())
	}
}
