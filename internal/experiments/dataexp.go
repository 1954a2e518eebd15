package experiments

import (
	"fmt"
	"strings"
	"time"

	"globuscompute/internal/core"
	"globuscompute/internal/proxystore"
	"globuscompute/internal/sdk"
	"globuscompute/internal/serialize"
)

// ProxyStore measures T8: moving data through the cloud service versus
// passing a proxy reference, across payload sizes, including sizes beyond
// the 10 MB service limit that only the proxy path can carry.
func ProxyStore(sizes []int) (Report, error) {
	if len(sizes) == 0 {
		sizes = []int{1 << 10, 64 << 10, 1 << 20, 8 << 20, 16 << 20}
	}
	r := Report{
		ID:     "proxystore",
		Title:  "Pass-by-value through the cloud vs ProxyStore pass-by-reference (§V)",
		Header: "size_bytes,via_cloud_ms,via_proxy_ms,cloud_ok,proxy_ok",
	}
	e, err := newEnv(2)
	if err != nil {
		return r, err
	}
	defer e.close()
	epID, err := e.tb.StartEndpoint(core.EndpointOptions{Name: "t8-ep", Owner: "bench", Workers: 2})
	if err != nil {
		return r, err
	}
	ex, err := e.executor(epID)
	if err != nil {
		return r, err
	}
	defer ex.Close()
	fn := &sdk.PythonFunction{Entrypoint: "identity"}

	// The proxy store: both client and workers can reach the testbed
	// object store, mirroring a shared in-site store.
	store, err := proxystore.NewStore("site", e.tb.Objects, 64<<20)
	if err != nil {
		return r, err
	}
	reg := proxystore.NewRegistry()
	reg.Register(store)

	for _, size := range sizes {
		payload := strings.Repeat("g", size)

		// Arm 1: pass-by-value through the service (subject to the 10 MB
		// cap).
		cloudMS := -1.0
		cloudOK := true
		start := time.Now()
		fut, err := ex.Submit(fn, payload)
		if err != nil {
			cloudOK = false
		} else if _, err := fut.ResultWithin(120 * time.Second); err != nil {
			cloudOK = false
		} else {
			cloudMS = float64(time.Since(start).Microseconds()) / 1000
		}

		// Arm 2: proxy the payload; only the small reference passes
		// through the service, and the "consumer" resolves it from the
		// store (here: the client side resolves post-result, standing in
		// for the worker-side resolution the transparent proxy performs).
		start = time.Now()
		proxy, err := store.Put(payload)
		if err != nil {
			return r, err
		}
		refJSON, err := proxyReferenceJSON(proxy)
		if err != nil {
			return r, err
		}
		fut2, err := ex.Submit(fn, refJSON)
		if err != nil {
			return r, err
		}
		if _, err := fut2.ResultWithin(120 * time.Second); err != nil {
			return r, err
		}
		var resolved string
		if err := proxy.ResolveInto(&resolved); err != nil || len(resolved) != size {
			return r, fmt.Errorf("proxy resolution lost data: %d of %d bytes, %v", len(resolved), size, err)
		}
		proxyMS := float64(time.Since(start).Microseconds()) / 1000

		cloudStr := fmt.Sprintf("%.1f", cloudMS)
		if !cloudOK {
			cloudStr = "rejected"
		}
		r.Rows = append(r.Rows, fmt.Sprintf("%d,%s,%.1f,%v,true", size, cloudStr, proxyMS, cloudOK))
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("payloads above the %d-byte service limit are rejected pass-by-value but flow pass-by-reference", serialize.MaxPayload),
		"proxies also shrink the bytes brokered through the service to a fixed-size reference")
	return r, nil
}

// proxyReferenceJSON renders the proxy's wire reference as a string
// argument.
func proxyReferenceJSON(p *proxystore.Proxy) (string, error) {
	ref := p.Reference()
	return fmt.Sprintf(`{"ps_store":%q,"ps_key":%q,"ps_size":%d}`, ref.Store, ref.Key, ref.Size), nil
}
