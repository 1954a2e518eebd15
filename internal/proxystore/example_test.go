package proxystore_test

import (
	"fmt"

	"globuscompute/internal/objectstore"
	"globuscompute/internal/proxystore"
)

// Large values become lightweight references; consumers resolve them from
// the store instead of moving bytes through the cloud service.
func ExampleStore() {
	store, _ := proxystore.NewStore("site", objectstore.New(), 1<<20)
	proxy, _ := store.Put(map[string]any{"weights": []float64{0.1, 0.2, 0.3}})

	ref := proxy.Reference()
	fmt.Println(ref.Store, ref.Size > 0)

	var model map[string]any
	_ = proxy.ResolveInto(&model)
	fmt.Println(len(model["weights"].([]any)))
	// Output:
	// site true
	// 3
}
