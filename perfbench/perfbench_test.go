package main

import (
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
)

// The traced run wraps every layer's entry points; it must not change
// what the program does. Over the same inputs, the authority must serve
// the same number of requests and issue the same keys with and without
// the decorators, on every workload. The workloads run here at a small
// geometry over the 64-bit test group.
func TestTracingLeavesAuthorityTrafficUnchanged(t *testing.T) {
	train := trainSpec{bits: 64, pool: 4, hidden: 8, batch: 8, test: 8, batches: 2, epochs: 1, lr: 0.3}
	dense := serveSpec{
		bits: 64, features: 784, classes: 10, hidden: 4,
		distinct: 4, low: 20, high: 40, limit: time.Second, weightSeed: 1,
	}
	topk := serveSpec{
		bits: 64, features: 500, classes: 8, topK: 3, density: 0.02,
		buckets: []int{16, 32}, low: 20, high: 40, limit: time.Second, weightSeed: 1, weightScale: 1,
	}
	timing := serveTiming{low: 300 * time.Millisecond, high: 300 * time.Millisecond, setups: 1}
	runs := map[string]func(tr *tracer) (*outcome, error){
		"train-mnist": func(tr *tracer) (*outcome, error) { return runTrainSpec(train, 5, 1, tr) },
		"serve-dense": func(tr *tracer) (*outcome, error) { return runServe(dense, 5, timing, tr) },
		"serve-topk":  func(tr *tracer) (*outcome, error) { return runServe(topk, 5, timing, tr) },
	}
	e2eNames, layerNames := map[string][]string{}, map[string][]string{}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			plain, err := run(nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := run(tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []*outcome{plain, traced} {
				if o.attempted == 0 {
					t.Fatal("no operations attempted")
				}
				if o.failed != 0 || o.mismatches != 0 {
					t.Fatalf("%d of %d operations failed (%d oracle mismatches): %v", o.failed, o.attempted, o.mismatches, o.info)
				}
			}
			a, b := plain.info["authority"].(authorityCounts), traced.info["authority"].(authorityCounts)
			if a.IPKeys+a.BOKeys == 0 {
				t.Fatalf("no keys issued: %+v", a)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("authority traffic differs: untraced %+v, traced %+v", a, b)
			}
			if tr.keys.calls.Load() == 0 {
				t.Errorf("traced run recorded no key-service calls")
			}
			e2eNames[name] = slices.Sorted(maps.Keys(plain.endToEnd))
			layerNames[name] = slices.Sorted(maps.Keys(traced.perLayer))
		})
	}
	// Every workload prints the same metric names.
	for name := range runs {
		if !slices.Equal(e2eNames[name], e2eNames["train-mnist"]) || !slices.Equal(layerNames[name], layerNames["train-mnist"]) {
			t.Errorf("%s prints metrics %v / %v, train-mnist prints %v / %v", name,
				e2eNames[name], layerNames[name], e2eNames["train-mnist"], layerNames["train-mnist"])
		}
	}
}

// The key-service decorator must keep exactly the optional extensions of
// the service it wraps: securemat chooses batched or coordinate-form key
// requests by type assertion, so a dropped extension would change the
// requests the program sends.
func TestTraceKeysKeepsExtensions(t *testing.T) {
	auth, err := authority.New(group.TestParams(), authority.AllowAll())
	if err != nil {
		t.Fatal(err)
	}
	// Embedding one interface restricts the method set to it.
	type onlyKeys struct{ securemat.KeyService }
	type onlyBatch struct{ securemat.BatchKeyService }
	type onlySparse struct{ securemat.SparseKeyService }
	for _, ks := range []securemat.KeyService{onlyKeys{auth}, onlyBatch{auth}, onlySparse{auth}, auth} {
		got := traceKeys(ks, &keyLedger{})
		_, wantBatch := ks.(securemat.BatchKeyService)
		_, wantSparse := ks.(securemat.SparseKeyService)
		_, gotBatch := got.(securemat.BatchKeyService)
		_, gotSparse := got.(securemat.SparseKeyService)
		if gotBatch != wantBatch || gotSparse != wantSparse {
			t.Errorf("%T: wrapped batch=%v sparse=%v, want batch=%v sparse=%v", ks, gotBatch, gotSparse, wantBatch, wantSparse)
		}
	}
}
