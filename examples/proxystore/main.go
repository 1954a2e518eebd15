// Data movement walkthrough: the paper's §V — the 10 MB payload limit,
// ProxyStore pass-by-reference for large objects, and Globus Transfer for
// file-based datasets.
//
//	go run ./examples/proxystore
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"globuscompute/internal/broker"
	"globuscompute/internal/core"
	"globuscompute/internal/objectstore"
	"globuscompute/internal/proxyexec"
	"globuscompute/internal/proxystore"
	"globuscompute/internal/sdk"
	"globuscompute/internal/serialize"
	"globuscompute/internal/transfer"
)

func main() {
	tb, err := core.NewTestbed(core.Options{ClusterNodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	tok, err := tb.IssueToken("data@example.edu", "example")
	if err != nil {
		log.Fatal(err)
	}
	// One in-site store shared by the client and the endpoint's workers;
	// the endpoint resolves proxied arguments transparently and proxies
	// large results back (§V-B).
	siteStore, err := proxystore.NewStore("site", tb.Objects, 64<<20)
	if err != nil {
		log.Fatal(err)
	}
	endpointID, err := tb.StartEndpoint(core.EndpointOptions{
		Name: "data-ep", Owner: "data@example.edu",
		ProxyStore: siteStore, ProxyPolicy: proxystore.Policy{MinSize: 64 << 10},
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

	// 1. The payload limit: a 16 MB argument is refused by the service.
	fmt.Println("-- payload limit --")
	big := strings.Repeat("x", serialize.MaxPayload+1)
	fut, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"}, big)
	if err == nil {
		_, err = fut.ResultWithin(time.Minute)
	}
	fmt.Printf("16 MB pass-by-value: %v\n", err)

	// 2. ProxyStore: put the object in the shared store and pass only the
	// reference through the cloud.
	fmt.Println("-- proxystore pass-by-reference --")
	store := siteStore
	reg := proxystore.NewRegistry()
	reg.Register(store)
	proxy, err := store.Put(big)
	if err != nil {
		log.Fatal(err)
	}
	ref := proxy.Reference()
	fmt.Printf("proxied %d bytes as reference {store=%s key=%s...}\n",
		ref.Size, ref.Store, ref.Key[:12])
	fut2, err := ex.Submit(&sdk.PythonFunction{Entrypoint: "identity"},
		map[string]any{"ps_store": ref.Store, "ps_key": ref.Key, "ps_size": ref.Size})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := fut2.ResultWithin(time.Minute); err != nil {
		log.Fatal(err)
	}
	var resolved string
	if err := proxy.ResolveInto(&resolved); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference passed through the cloud; resolved %d bytes from the store\n", len(resolved))

	// 2b. The executor wrapper automates this: arguments above the policy
	// size are proxied on submit, and results resolve transparently.
	fmt.Println("-- proxystore executor wrapper --")
	wrapReg := proxystore.NewRegistry()
	wrapReg.Register(store)
	wrapped, err := proxyexec.Wrap(ex, store, wrapReg, proxystore.Policy{MinSize: 64 << 10})
	if err != nil {
		log.Fatal(err)
	}
	futW, err := wrapped.Submit(&sdk.PythonFunction{Entrypoint: "identity"},
		strings.Repeat("auto", 100_000)) // 400 kB: proxied automatically
	if err != nil {
		log.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), time.Minute)
	defer wcancel()
	outW, err := wrapped.Result(wctx, futW)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrapper round-tripped %d bytes with only references through the cloud\n", len(outW))

	// 3. Globus Transfer: move files between Connect endpoints,
	// fire-and-forget with status polling.
	fmt.Println("-- globus transfer --")
	ts := transfer.NewService()
	defer ts.Close()
	lab, err := ts.CreateEndpoint("lab-storage", filepath.Join(tbDir(), "lab"))
	if err != nil {
		log.Fatal(err)
	}
	hpc, err := ts.CreateEndpoint("hpc-scratch", filepath.Join(tbDir(), "hpc"))
	if err != nil {
		log.Fatal(err)
	}
	if err := writeDataset(lab, "dataset.bin", 1<<20); err != nil {
		log.Fatal(err)
	}
	taskID, err := ts.Submit(transfer.Spec{
		Source: lab.ID, Destination: hpc.ID,
		Items: []transfer.Item{{SourcePath: "dataset.bin", DestPath: "in/dataset.bin"}},
		Label: "stage input data",
	})
	if err != nil {
		log.Fatal(err)
	}
	info, err := ts.Wait(taskID, time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transfer %s: %s, %d files, %d bytes\n",
		taskID[:8], info.Status, info.FilesTransferred, info.BytesTransferred)

	// The staged file is now visible to ShellFunctions on the endpoint.
	sf := sdk.NewShellFunction("wc -c < {file}")
	fut3, err := ex.SubmitShell(sf, map[string]string{
		"file": filepath.Join(hpc.Root, "in/dataset.bin"),
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sr, err := fut3.ShellResult(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("task sees staged file: %s bytes\n", strings.TrimSpace(sr.Stdout))
}

// tbDir returns a scratch directory for the transfer endpoints.
func tbDir() string {
	dir, err := os.MkdirTemp("", "gc-transfer-*")
	if err != nil {
		log.Fatal(err)
	}
	return dir
}

// writeDataset creates a synthetic input file on an endpoint.
func writeDataset(ep transfer.Endpoint, rel string, size int) error {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	return os.WriteFile(filepath.Join(ep.Root, rel), data, 0o644)
}
