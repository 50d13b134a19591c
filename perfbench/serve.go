package main

// The serving workloads: open-loop batch-1 prediction requests over
// pipelined binary-codec connections to the training service's
// prediction server, at two fixed offered rates, plus a search for the
// highest rate that meets the latency limit.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/mnist"
	"cryptonn/internal/nn"
	"cryptonn/internal/securemat"
	"cryptonn/internal/service"
	"cryptonn/internal/tensor"
	"cryptonn/internal/wire"
)

// serveSpec is one serving workload's geometry, rates and limit.
type serveSpec struct {
	bits              int
	features, classes int
	// hidden is the hidden-layer width; 0 selects the bias-free linear
	// model top-k serving requires.
	hidden int
	// topK > 0 sends PredictTopK requests with this k; 0 sends dense
	// Predict requests.
	topK int
	// density is the non-zero fraction of a top-k input.
	density float64
	buckets []int
	// distinct is the number of distinct pre-encrypted dense inputs the
	// requests cycle through; top-k requests each get their own input.
	distinct int
	// low and high are the two fixed offered rates (requests per
	// second), calibrated to about 20% and 70% of max_rps on the
	// reference machine; limit is the tail-latency limit.
	low, high float64
	limit     time.Duration
	// searchLo and searchHi bracket the max_rps search.
	searchLo, searchHi float64
	// weightSeed fixes the model weights; the workload seed only draws
	// inputs and arrivals.
	weightSeed int64
	// weightScale > 0 replaces the service's initial first-layer weights
	// with a weightSeed draw uniform on [-weightScale, weightScale] at the
	// codec's grid before serving starts; 0 serves the initial weights.
	weightScale float64
}

// Reference rates and limits, calibrated on a 2-vCPU machine
// (README.md records the calibration).
var (
	serveDenseSpec = serveSpec{
		bits:     256,
		features: 784, classes: 10, hidden: 32,
		distinct: 64,
		low:      13, high: 46, limit: 250 * time.Millisecond,
		searchLo: 40, searchHi: 110,
		weightSeed: 1,
	}
	serveTopKSpec = serveSpec{
		bits:     256,
		features: 10000, classes: 64, topK: 10, density: 0.01,
		buckets: []int{128, 256, 512},
		low:     9, high: 32, limit: 100 * time.Millisecond,
		searchLo: 25, searchHi: 80,
		// A stand-in for trained weights: Xavier initialisation at
		// η = 10000 puts almost every weight within ±0.02, which the
		// two-decimal codec rounds to 0 or ±0.01, so all 64 logits would
		// land in one giant-step round and the top-k scan could never
		// skip a label.
		weightSeed: 1, weightScale: 1,
	}
)

// serveTiming splits a run's measurement time between its phases.
type serveTiming struct {
	// low and high are the total times at the two fixed rates, run as
	// rounds of alternating segments.
	low, high time.Duration
	// probes is the number of max_rps search probes and probe each one's
	// duration; zero probes skips the search.
	probes int
	probe  time.Duration
	// setups is how many times the stack is built (the median is
	// setup_s); only the last one serves.
	setups int
}

// rounds is how many low-rate and high-rate segments alternate, so each
// rate samples the whole run rather than one stretch of a noisy
// machine's time.
const rounds = 4

func timingFor(seconds float64, full bool) serveTiming {
	total := time.Duration(seconds * float64(time.Second))
	if !full {
		return serveTiming{low: total / 2, high: total / 2, setups: 1}
	}
	return serveTiming{low: total * 2 / 5, high: total * 2 / 5, probes: 4, probe: total / 20, setups: 5}
}

func runServeDense(seed int64, seconds float64, full bool, tr *tracer) (*outcome, error) {
	return runServe(serveDenseSpec, seed, timingFor(seconds, full), tr)
}

func runServeTopK(seed int64, seconds float64, full bool, tr *tracer) (*outcome, error) {
	tm := timingFor(seconds, full)
	// A top-k stack takes over a second to build (η = 10000 keys and
	// tables), so three builds give the median.
	tm.setups = min(tm.setups, 3)
	return runServe(serveTopKSpec, seed, tm, tr)
}

// servingInputs are a workload's pre-encrypted requests and the answers
// the plaintext oracle expects.
type servingInputs struct {
	dense    []*core.EncryptedBatch
	denseAns []int
	sparse   []*core.SparseBatch
	topkAns  [][]int64 // per input: exact integer logits of every label
	gen      *sparseGen
	next     int
	// encrypt is the time spent in client encryption for samples inputs.
	encrypt time.Duration
	samples int
}

// take returns the next input index: dense inputs cycle, sparse inputs
// are each used once.
func (in *servingInputs) take() int {
	i := in.next
	in.next++
	if in.dense != nil {
		return i % len(in.dense)
	}
	return i
}

// servingModel rebuilds the service's initial model (same constructor,
// same seed) for the oracle, and returns the codec-grid integer weights
// the secure first layer computes with.
func servingModel(spec serveSpec) (*nn.Model, [][]int64, error) {
	var hidden []int
	if spec.hidden > 0 {
		hidden = []int{spec.hidden}
	}
	m, err := nn.NewMLP(spec.features, spec.classes, hidden, nn.SoftmaxCrossEntropy{}, rand.New(rand.NewSource(spec.weightSeed)))
	if err != nil {
		return nil, nil, err
	}
	setWeights(m, spec)
	w, err := snapWeights(m.Layers[0].(*nn.DenseLayer).W, serviceMaxWeight)
	return m, w, err
}

// setWeights applies the spec's weight draw to the first layer, if any.
func setWeights(m *nn.Model, spec serveSpec) {
	if spec.weightScale == 0 {
		return
	}
	rng := rand.New(rand.NewSource(spec.weightSeed))
	w := m.Layers[0].(*nn.DenseLayer).W
	for i := range w.Data {
		w.Data[i] = float64(rng.Intn(int(200*spec.weightScale)+1)-int(100*spec.weightScale)) / 100
	}
}

// serviceMaxWeight is service.Config's default MaxWeight: the clamp the
// secure layer applies to weights before encoding them.
const serviceMaxWeight = 4

// snapWeights clamps and encodes W onto the codec grid exactly as the
// secure first layer does.
func snapWeights(w *tensor.Dense, limit float64) ([][]int64, error) {
	clamped := w.Apply(func(v float64) float64 { return max(-limit, min(limit, v)) })
	return fixedpoint.Default().EncodeMat(clamped.Rows2D())
}

// denseOracle computes the label the plaintext model predicts for one
// codec-grid input column: the first layer as the exact integer inner
// product the secure layer decrypts, then the plaintext remainder.
func denseOracle(m *nn.Model, w [][]int64, x []int64) (int, error) {
	codec := fixedpoint.Default()
	layer0 := m.Layers[0].(*nn.DenseLayer)
	z := tensor.NewDense(len(w), 1)
	for i, row := range w {
		var acc int64
		for j, v := range row {
			acc += v * x[j]
		}
		z.Set(i, 0, codec.DecodeProduct(acc)+layer0.B.At(i, 0))
	}
	out, err := m.ForwardFrom(1, z)
	if err != nil {
		return 0, err
	}
	return out.ArgMaxCol(0), nil
}

// makeDenseInputs draws synthetic digits on the codec grid, encrypts each
// as its own batch-1 request, and records the oracle's label.
func makeDenseInputs(spec serveSpec, seed int64, n int, client *core.Client) (*servingInputs, error) {
	ds, err := mnist.Synthetic(n, seed)
	if err != nil {
		return nil, err
	}
	m, w, err := servingModel(spec)
	if err != nil {
		return nil, err
	}
	xi, err := client.Codec.EncodeMat(ds.Images.Rows2D())
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	enc, err := client.Engine.Encrypt(xi, securemat.EncryptOptions{SkipElems: true})
	if err != nil {
		return nil, err
	}
	in := &servingInputs{encrypt: time.Since(t0), samples: n}
	col := make([]int64, spec.features)
	for j := 0; j < ds.N(); j++ {
		for i := range col {
			col[i] = xi[i][j]
		}
		label, err := denseOracle(m, w, col)
		if err != nil {
			return nil, err
		}
		in.dense = append(in.dense, &core.EncryptedBatch{
			X:        &securemat.EncryptedMatrix{Rows: spec.features, Cols: 1, ColCts: enc.ColCts[j : j+1]},
			Features: spec.features, Classes: spec.classes, N: 1,
		})
		in.denseAns = append(in.denseAns, label)
	}
	return in, nil
}

// sparseGen draws top-k inputs of the spec's density, each with a
// support no earlier input had, values on the codec grid in [-1, 1].
type sparseGen struct {
	spec   serveSpec
	client *core.Client
	rng    *rand.Rand
	w      [][]int64
	seen   map[string]bool
}

func newSparseGen(spec serveSpec, seed int64, client *core.Client) (*sparseGen, error) {
	_, w, err := servingModel(spec)
	if err != nil {
		return nil, err
	}
	return &sparseGen{spec: spec, client: client, rng: rand.New(rand.NewSource(seed)), w: w, seen: map[string]bool{}}, nil
}

// support draws a sorted support of nnz coordinates not drawn before.
func (g *sparseGen) support(nnz int) []int {
	for {
		pick := map[int]bool{}
		for len(pick) < nnz {
			pick[g.rng.Intn(g.spec.features)] = true
		}
		supp := make([]int, 0, nnz)
		for i := range pick {
			supp = append(supp, i)
		}
		sort.Ints(supp)
		if sig := fmt.Sprint(supp); !g.seen[sig] {
			g.seen[sig] = true
			return supp
		}
	}
}

// add encrypts n more inputs in coordinate form and records the exact
// integer logits of each.
func (g *sparseGen) add(in *servingInputs, n int) error {
	spec := g.spec
	nnz := max(1, int(spec.density*float64(spec.features)))
	const chunk = 64
	for n > 0 {
		cols := min(chunk, n)
		n -= cols
		x := tensor.NewDense(spec.features, cols)
		logits := make([][]int64, cols)
		for j := range logits {
			logits[j] = make([]int64, len(g.w))
			for _, i := range g.support(nnz) {
				v := int64(g.rng.Intn(100) + 1) // |x| ≤ 1 at two decimals
				if g.rng.Intn(2) == 0 {
					v = -v
				}
				x.Set(i, j, float64(v)/100)
				for l, row := range g.w {
					logits[j][l] += row[i] * v
				}
			}
		}
		t0 := time.Now()
		sp, err := g.client.EncryptSparseBatch(x, spec.classes)
		if err != nil {
			return err
		}
		in.encrypt += time.Since(t0)
		in.samples += cols
		for j := 0; j < cols; j++ {
			in.sparse = append(in.sparse, &core.SparseBatch{
				X:        &securemat.SparseEncryptedMatrix{Rows: spec.features, Cols: 1, ColCts: sp.X.ColCts[j : j+1]},
				Features: spec.features, Classes: spec.classes, N: 1,
			})
		}
		in.topkAns = append(in.topkAns, logits...)
	}
	return nil
}

// checkTopK accepts hits when their values are exactly the k largest
// logits in descending order and every label carries its own logit;
// labels may differ from a plaintext ranking only among equal values.
func checkTopK(hits []dlog.TopKHit, logits []int64, k int) error {
	want := slices.Clone(logits)
	slices.SortFunc(want, func(a, b int64) int { return cmp.Compare(b, a) })
	if len(hits) != k {
		return errMismatch
	}
	seen := map[int]bool{}
	for r, h := range hits {
		if h.Value != want[r] || h.Index < 0 || h.Index >= len(logits) || logits[h.Index] != h.Value || seen[h.Index] {
			return errMismatch
		}
		seen[h.Index] = true
	}
	return nil
}

// servingStack is a stack whose service is serving predictions, with
// the client connections the load generator uses.
type servingStack struct {
	*stack
	conns []*wire.ClientConn
	ps    *wire.PredictionServer // traced composition only
}

// Close closes the client connections, then the stack.
func (s *servingStack) Close() error {
	var first error
	for _, cc := range s.conns {
		if err := cc.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := s.stack.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

func serviceConfig(spec serveSpec) service.Config {
	cfg := service.Config{
		Features: spec.features, Classes: spec.classes,
		Seed: spec.weightSeed, SparseBuckets: spec.buckets,
	}
	if spec.hidden > 0 {
		cfg.Hidden = []int{spec.hidden}
	} else {
		cfg.Linear = true
	}
	return cfg
}

// startServing builds a stack, starts prediction serving on a loopback
// listener, and dials the load generator's connections. Untraced, the
// service serves through Server.ServePredictions; traced, the benchmark
// composes the same coalescing prediction server around timed
// PredictFunc and PredictTopKFunc wrappers.
func startServing(spec serveSpec, tr *tracer) (*servingStack, error) {
	st, err := newStack(spec.bits, serviceConfig(spec), []int{spec.features}, tr)
	if err != nil {
		return nil, err
	}
	s := &servingStack{stack: st}
	// Before the first request: the service encodes its serving weights
	// lazily, on the warm-up request.
	setWeights(st.srv.Model(), spec)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, s.fail(err)
	}
	if tr == nil {
		s.goServe(func() error { return st.srv.ServePredictions(st.ctx, l) })
	} else {
		predict := func(enc *core.EncryptedBatch) ([]int, error) {
			defer tr.recordEval(time.Now(), enc.N)
			return st.srv.Predict(enc)
		}
		topk := func(sp *core.SparseBatch, k int) ([][]dlog.TopKHit, error) {
			defer tr.recordEval(time.Now(), sp.N)
			return st.srv.PredictTopK(sp, k)
		}
		if s.ps, err = wire.NewCoalescingPredictionServer(predict, nil, wire.DispatcherOptions{TopK: topk}); err != nil {
			_ = l.Close()
			return nil, s.fail(err)
		}
		s.goServe(func() error { return s.ps.Serve(st.ctx, l) })
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, s.fail(err)
		}
		var c net.Conn = conn
		if tr != nil {
			c = countingConn{conn, &tr.requestBytes}
		}
		cc, err := wire.NewClientConn(c, wire.CodecBinary)
		if err != nil {
			_ = conn.Close()
			return nil, s.fail(err)
		}
		s.conns = append(s.conns, cc)
	}
	return s, nil
}

func (s *servingStack) fail(err error) error {
	if cerr := s.Close(); cerr != nil {
		return fmt.Errorf("%w (closing: %v)", err, cerr)
	}
	return err
}

// sender returns the request function for the workload.
func sender(spec serveSpec, in *servingInputs) sendFunc {
	if spec.topK > 0 {
		return func(ctx context.Context, cc *wire.ClientConn, i int) error {
			hits, err := cc.PredictTopK(ctx, in.sparse[i], spec.topK, 0)
			if err != nil {
				return err
			}
			return checkTopK(hits[0], in.topkAns[i], spec.topK)
		}
	}
	return func(ctx context.Context, cc *wire.ClientConn, i int) error {
		preds, err := cc.Predict(ctx, in.dense[i], 0)
		if err != nil {
			return err
		}
		if preds[0] != in.denseAns[i] {
			return errMismatch
		}
		return nil
	}
}

// requestTimeout bounds one request; a timed-out request is a failure.
const requestTimeout = 20 * time.Second

// inputsFor returns a workload's input store under the stack's keys:
// the pool of distinct dense inputs, or an empty top-k store that grows
// as phases need inputs.
func inputsFor(spec serveSpec, seed int64, st *stack) (*servingInputs, error) {
	if spec.topK == 0 {
		return makeDenseInputs(spec, seed, spec.distinct, st.client)
	}
	gen, err := newSparseGen(spec, seed, st.client)
	if err != nil {
		return nil, err
	}
	return &servingInputs{gen: gen}, nil
}

// prepare binds inputs to a phase's arrivals, first making any top-k
// inputs the phase needs beyond those already made, and returns the time
// it took. It runs before the phase's clock starts.
func (in *servingInputs) prepare(arr []arrival) (time.Duration, error) {
	t0 := time.Now()
	if in.gen != nil {
		if short := in.next + len(arr) - len(in.sparse); short > 0 {
			if err := in.gen.add(in, short); err != nil {
				return 0, err
			}
		}
	}
	for i := range arr {
		arr[i].input = in.take()
	}
	return time.Since(t0), nil
}

// warmUpSeed separates the warm-up inputs from the measured ones.
const warmUpSeed = 1 << 40

// setUpServing builds a serving stack and sends one warm-up request,
// which builds the service's lazy predict or top-k state; the returned
// duration excludes encrypting the warm-up input.
func setUpServing(spec serveSpec, seed int64, tr *tracer) (*servingStack, time.Duration, error) {
	t0 := time.Now()
	s, err := startServing(spec, tr)
	if err != nil {
		return nil, 0, err
	}
	warmSpec := spec
	warmSpec.distinct = 1
	warm, err := inputsFor(warmSpec, seed+warmUpSeed, s.stack)
	if err != nil {
		return nil, 0, s.fail(err)
	}
	arr := []arrival{{}}
	enc, err := warm.prepare(arr)
	if err != nil {
		return nil, 0, s.fail(err)
	}
	if err := sender(spec, warm)(context.Background(), s.conns[0], arr[0].input); err != nil {
		return nil, 0, s.fail(fmt.Errorf("warm-up request: %w", err))
	}
	return s, time.Since(t0) - enc, nil
}

func runServe(spec serveSpec, seed int64, tm serveTiming, tr *tracer) (*outcome, error) {
	out := newOutcome()
	out.info["geometry"] = map[string]any{
		"bits": spec.bits, "features": spec.features, "classes": spec.classes,
		"hidden": spec.hidden, "top_k": spec.topK, "density": spec.density,
		"sparse_buckets": spec.buckets, "distinct_dense_inputs": spec.distinct,
		"batch": 1, "connections": runtime.NumCPU(), "parallelism": runtime.NumCPU(),
		"key_pool": serverKeyPool, "dispatcher": "greedy (default options)",
	}
	out.info["rates_rps"] = map[string]float64{"low": spec.low, "high": spec.high,
		"search_lo": spec.searchLo, "search_hi": spec.searchHi}
	out.info["limit_ms"] = ms(spec.limit)
	out.info["phase_s"] = map[string]float64{"low": tm.low.Seconds(), "high": tm.high.Seconds(),
		"rounds": rounds, "probe": tm.probe.Seconds(), "probes": float64(tm.probes)}

	var setups []float64
	var s *servingStack
	for i := 0; i < tm.setups; i++ {
		if s != nil {
			if err := s.Close(); err != nil {
				return nil, err
			}
			// Return the torn-down stack's memory, so peak_rss_mb
			// measures one stack rather than garbage left by others.
			debug.FreeOSMemory()
		}
		var d time.Duration
		var err error
		if s, d, err = setUpServing(spec, seed, tr); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer s.Close()

	// Every phase's arrivals and inputs are drawn from the seed before
	// that phase's clock starts.
	rng := rand.New(rand.NewSource(seed))
	in, err := inputsFor(spec, seed, s.stack)
	if err != nil {
		return nil, err
	}
	send := sender(spec, in)
	ctx := context.Background()
	var prepDur time.Duration
	segment := func(rate float64, dur time.Duration) ([]reqResult, error) {
		arr := schedule(rng, rate, dur)
		d, err := in.prepare(arr)
		if err != nil {
			return nil, err
		}
		prepDur += d
		if in.gen != nil {
			// Collect the garbage input encryption left before the clock
			// starts: in deployment it lives in the clients' processes.
			runtime.GC()
		}
		return runOpenLoop(ctx, arr, s.conns, requestTimeout, send), nil
	}

	var ledger *servingLedger
	if tr != nil {
		if ledger, err = startLedger(s, tr); err != nil {
			return nil, err
		}
	}
	var lowSegs, highSegs [][]reqResult
	for r := 0; r < rounds; r++ {
		seg, err := segment(spec.low, tm.low/rounds)
		if err != nil {
			return nil, err
		}
		lowSegs = append(lowSegs, seg)
		if seg, err = segment(spec.high, tm.high/rounds); err != nil {
			return nil, err
		}
		highSegs = append(highSegs, seg)
	}
	low, high := summarize(lowSegs), summarize(highSegs)
	out.info["authority"] = s.authorityCounts()
	// Peak memory is read before the max_rps search, whose overloaded
	// probes are not part of the workload's defined load.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if ledger != nil {
		if err := ledger.finish(out, spec, slices.Concat(slices.Concat(lowSegs...), slices.Concat(highSegs...)), in); err != nil {
			return nil, err
		}
	}
	phases := []phaseStats{low, high}

	// The max_rps search bisects the bracket on a log scale, one probe
	// per step; the answer is the highest rate that met the limit (the
	// bracket floor when none did). Probe latencies are timed from due
	// times like every other request, so a late generator counts
	// against the probe rather than flattering it.
	maxRPS, lo, hi := spec.searchLo, spec.searchLo, spec.searchHi
	var probes []map[string]any
	for p := 0; p < tm.probes; p++ {
		rate := math.Sqrt(lo * hi)
		seg, err := segment(rate, tm.probe)
		if err != nil {
			return nil, err
		}
		st := summarize([][]reqResult{seg})
		phases = append(phases, st)
		ok := st.meets(spec.limit)
		if ok {
			lo, maxRPS = rate, rate
		} else {
			hi = rate
		}
		probes = append(probes, map[string]any{"rate_rps": rate, "requests": st.requests,
			"p50_ms": ms(st.p50), "tail_ms": ms(st.tail), "tail_percentile": st.tailPct,
			"drain_ms": ms(st.drain), "late_ms_tail": ms(st.lateTail), "met_limit": ok})
	}

	for _, st := range phases {
		out.attempted += st.requests
		out.failed += st.failed
		out.mismatches += st.mismatches
	}
	// The fixed-rate phases are reported only if the generator kept to
	// their schedules.
	late := max(low.lateTail, high.lateTail)
	if bound := lateBound(spec); late > bound {
		out.invalid = fmt.Sprintf("load generator ran %v late at its tail (bound %v)", late, bound)
	}
	out.e2e("setup_s", "s", median(setups))
	out.e2e("peak_rss_mb", "MB", rss)
	out.e2e("latency_ms", "ms", ms(low.p50))
	out.e2e("samples_per_s", "1/s", high.completed)
	out.layer("loadgen.late_ms_tail", "ms", ms(late))
	out.headline = ms(low.p50)
	named := map[string]any{
		"setup_s": median(setups), "setup_s_samples": setups, "peak_rss_mb": rss,
		"fail_ratio":     float64(out.failed) / float64(max(1, out.attempted)),
		"lat_p50_ms.low": ms(low.p50), "lat_tail_ms.low": ms(low.tail),
		"lat_tail_percentile.low": low.tailPct, "req_count.low": low.requests,
		"lat_p50_ms.high": ms(high.p50), "lat_tail_ms.high": ms(high.tail),
		"lat_tail_percentile.high": high.tailPct, "req_count.high": high.requests,
		"samples_per_s.high":   high.completed,
		"req_count":            out.attempted,
		"loadgen.late_ms_tail": ms(late),
		"input_prep_s":         prepDur.Seconds(),
	}
	if tm.probes > 0 {
		named["max_rps"] = maxRPS
		out.info["max_rps_probes"] = probes
	}
	out.info["metrics"] = named
	return out, nil
}

// lateBound is how late the generator may run at its tail before a
// fixed-rate phase is invalid: half the workload's latency limit. The
// generator shares the server's processors, so under load it starts
// requests as late as the process schedules any goroutine (10–30 ms at
// the high rate on a 2-vCPU machine); that lateness is inside every
// measured latency, which runs from the due time.
func lateBound(spec serveSpec) time.Duration { return spec.limit / 2 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
