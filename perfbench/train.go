package main

// The train-mnist workload: one client runs the full networked training
// pipeline — encrypt, submit over the binary codec, secure training by
// service.Server.Run — and the trained model is scored against a
// plaintext twin trained from the same initialisation on the same data.

import (
	"context"
	"math/rand"
	"net"
	"runtime/debug"
	"slices"
	"time"

	"cryptonn/internal/core"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/mnist"
	"cryptonn/internal/nn"
	"cryptonn/internal/service"
	"cryptonn/internal/tensor"
	"cryptonn/internal/wire"
)

// trainSpec is the training workload's geometry.
type trainSpec struct {
	bits                int
	pool                int // average-pooling factor on the 28×28 digits
	hidden, batch, test int
	batches, epochs     int
	lr                  float64
}

var trainMNISTSpec = trainSpec{
	bits: 256, pool: 2, hidden: 32, batch: 64, test: 64,
	batches: 4, epochs: 1, lr: 0.3,
}

func (t trainSpec) side() int     { return mnist.Side / t.pool }
func (t trainSpec) features() int { return t.side() * t.side() }
func (t trainSpec) samples() int  { return t.batch * t.batches }

// trainData is the workload's plaintext data, pooled and on the codec
// grid, split into training batches and a test set.
type trainData struct {
	xs, ys       []*tensor.Dense
	testX, testY *tensor.Dense
}

func makeTrainData(spec trainSpec, seed int64) (*trainData, error) {
	ds, err := mnist.Synthetic(spec.samples()+spec.test, seed)
	if err != nil {
		return nil, err
	}
	d := &trainData{}
	for b := 0; b <= spec.batches; b++ {
		from, n := b*spec.batch, spec.batch
		if b == spec.batches {
			n = spec.test
		}
		x, y, err := ds.Batch(from, from+n)
		if err != nil {
			return nil, err
		}
		x = onCodecGrid(poolColumns(x, mnist.Side, spec.pool))
		if b == spec.batches {
			d.testX, d.testY = x, y
		} else {
			d.xs, d.ys = append(d.xs, x), append(d.ys, y)
		}
	}
	return d, nil
}

// poolColumns average-pools every column of x, read as a flattened
// side×side image, by factor f.
func poolColumns(x *tensor.Dense, side, f int) *tensor.Dense {
	out := side / f
	pooled := tensor.NewDense(out*out, x.Cols)
	inv := 1 / float64(f*f)
	for c := 0; c < x.Cols; c++ {
		for oy := 0; oy < out; oy++ {
			for ox := 0; ox < out; ox++ {
				var sum float64
				for dy := 0; dy < f; dy++ {
					for dx := 0; dx < f; dx++ {
						sum += x.At((oy*f+dy)*side+(ox*f+dx), c)
					}
				}
				pooled.Set(oy*out+ox, c, sum*inv)
			}
		}
	}
	return pooled
}

// onCodecGrid rounds every value to the fixed-point codec's grid, so the
// client and the plaintext twin train on identical inputs.
func onCodecGrid(x *tensor.Dense) *tensor.Dense {
	codec := fixedpoint.Default()
	return x.Apply(func(v float64) float64 {
		e, err := codec.Encode(v)
		if err != nil {
			panic(err) // unreachable: pixel averages lie in [0, 1]
		}
		return codec.Decode(e)
	})
}

func trainConfig(spec trainSpec, seed int64) service.Config {
	return service.Config{
		Features: spec.features(), Classes: mnist.Classes,
		Hidden: []int{spec.hidden}, Epochs: spec.epochs, LR: spec.lr,
		Expect: 1, Seed: seed, ComputeLoss: true,
	}
}

// trainJob is one run of the networked pipeline.
type trainJob struct {
	report      *service.Report
	e2e         time.Duration
	secureAcc   float64
	twinAcc     float64       // fixed-point twin, the oracle
	sameWeights bool          // secure model and fixed-point twin bit-identical
	plainAcc    float64       // float twin, the Table III baseline
	plainStep   time.Duration // mean float twin step
	encrypt     time.Duration
	submit      time.Duration
	submitBytes int64
}

// runTrainJob encrypts the batches, submits them over a fresh connection
// while the service's Run collects and trains, then scores the trained
// model and its plaintext twin on the test set.
func runTrainJob(spec trainSpec, seed int64, st *stack, d *trainData, tr *tracer) (*trainJob, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	job := &trainJob{}
	type runResult struct {
		report *service.Report
		err    error
	}
	ran := make(chan runResult, 1)
	start := time.Now()
	go func() {
		r, err := st.srv.Run(context.Background(), l)
		ran <- runResult{r, err}
	}()

	encs := make([]*core.EncryptedBatch, len(d.xs))
	for i := range d.xs {
		if encs[i], err = st.client.EncryptBatch(d.xs[i], d.ys[i]); err != nil {
			break
		}
	}
	job.encrypt = time.Since(start)
	if err == nil {
		err = submit(l.Addr().String(), encs, tr, job)
	}
	if err != nil {
		_ = l.Close() // unblocks Run, which then reports the closed listener
		<-ran
		return nil, err
	}
	r := <-ran
	if r.err != nil {
		return nil, r.err
	}
	job.e2e = time.Since(start)
	job.report = r.report

	secure := st.srv.Model()
	if job.secureAcc, err = secure.Accuracy(d.testX, d.testY); err != nil {
		return nil, err
	}

	// The oracle twin repeats the secure step's fixed-point arithmetic in
	// plaintext; the secure model must match it bit for bit.
	fixed, err := newTwin(spec, seed)
	if err != nil {
		return nil, err
	}
	for e := 0; e < spec.epochs; e++ {
		for i := range d.xs {
			if err := fixedPointStep(fixed.model, d.xs[i], d.ys[i], fixed.opt); err != nil {
				return nil, err
			}
		}
	}
	job.sameWeights = sameParams(secure, fixed.model)
	if job.twinAcc, err = fixed.model.Accuracy(d.testX, d.testY); err != nil {
		return nil, err
	}

	// The float twin is the plain baseline of Table III.
	plain, err := newTwin(spec, seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for e := 0; e < spec.epochs; e++ {
		for i := range d.xs {
			if _, err := plain.model.TrainBatch(d.xs[i], d.ys[i], plain.opt); err != nil {
				return nil, err
			}
		}
	}
	job.plainStep = time.Since(t0) / time.Duration(spec.epochs*len(d.xs))
	if job.plainAcc, err = plain.model.Accuracy(d.testX, d.testY); err != nil {
		return nil, err
	}
	return job, nil
}

// twin is a plaintext model with the service's initialisation and
// optimizer.
type twin struct {
	model *nn.Model
	opt   nn.Optimizer
}

func newTwin(spec trainSpec, seed int64) (*twin, error) {
	m, err := nn.NewMLP(spec.features(), mnist.Classes, []int{spec.hidden}, nn.SoftmaxCrossEntropy{}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	opt, err := nn.NewSGD(spec.lr, 0)
	if err != nil {
		return nil, err
	}
	return &twin{m, opt}, nil
}

// gradScale is core.Config's default GradScale, the fixed-point
// pre-multiplier of the secure first-layer gradient.
const gradScale = 100

// fixedPointStep is one training step of core.Trainer (Algorithm 2) with
// every secure computation replaced by the exact integer arithmetic its
// decryption recovers: the same encodings, clamps and decodings in the
// same order, so the result matches the secure step bit for bit.
func fixedPointStep(m *nn.Model, x, y *tensor.Dense, opt nn.Optimizer) error {
	codec := fixedpoint.Default()
	layer0 := m.Layers[0].(*nn.DenseLayer)
	m.ZeroGrad()
	xInt, err := codec.EncodeMat(x.Rows2D())
	if err != nil {
		return err
	}
	wInt, err := snapWeights(layer0.W, serviceMaxWeight)
	if err != nil {
		return err
	}
	z := intProduct(wInt, xInt, false, codec.DecodeProduct)
	if err := z.AddColVector(layer0.B.Data); err != nil {
		return err
	}
	out, err := m.ForwardFrom(1, z)
	if err != nil {
		return err
	}
	p := nn.Softmax(out)
	pInt, err := codec.EncodeMat(p.Rows2D())
	if err != nil {
		return err
	}
	yInt, err := codec.EncodeMat(y.Rows2D())
	if err != nil {
		return err
	}
	diff := tensor.NewDense(p.Rows, p.Cols)
	for i := range pInt {
		for j := range pInt[i] {
			diff.Set(i, j, -codec.Decode(yInt[i][j]-pInt[i][j]))
		}
	}
	dZ, err := m.BackwardTo(1, diff.Scale(1/float64(x.Cols)))
	if err != nil {
		return err
	}
	dzInt, err := snapWeights(dZ.Scale(gradScale), serviceMaxWeight*gradScale)
	if err != nil {
		return err
	}
	dW := intProduct(dzInt, xInt, true, func(v int64) float64 { return codec.DecodeProduct(v) / gradScale })
	if err := layer0.GradW.AddInPlace(dW); err != nil {
		return err
	}
	for i, v := range dZ.SumCols() {
		layer0.GradB.Data[i] += v
	}
	return m.ApplyStep(opt)
}

// intProduct returns decode(a·b), or decode(a·bᵀ) when transposeB, over
// exact integers.
func intProduct(a, b [][]int64, transposeB bool, decode func(int64) float64) *tensor.Dense {
	cols := len(b[0])
	if transposeB {
		cols = len(b)
	}
	out := tensor.NewDense(len(a), cols)
	for i, row := range a {
		for j := 0; j < cols; j++ {
			var acc int64
			for k, v := range row {
				if transposeB {
					acc += v * b[j][k]
				} else {
					acc += v * b[k][j]
				}
			}
			out.Set(i, j, decode(acc))
		}
	}
	return out
}

// sameParams reports whether two models' parameters are bit-identical.
func sameParams(a, b *nn.Model) bool {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if !slices.Equal(pa[i].Value.Data, pb[i].Value.Data) {
			return false
		}
	}
	return true
}

// submit dials the training listener, negotiates the binary codec, and
// submits the batches; traced, the connection counts its bytes.
func submit(addr string, encs []*core.EncryptedBatch, tr *tracer, job *trainJob) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	var c net.Conn = conn
	if tr != nil {
		c = countingConn{conn, &tr.submitBytes}
	}
	cc, err := wire.NewClientConn(c, wire.CodecBinary)
	if err != nil {
		_ = conn.Close()
		return err
	}
	defer cc.Close()
	b0 := int64(0)
	if tr != nil {
		b0 = tr.submitBytes.Load()
	}
	t0 := time.Now()
	if err := cc.SubmitBatches(encs); err != nil {
		return err
	}
	job.submit = time.Since(t0)
	if tr != nil {
		job.submitBytes = tr.submitBytes.Load() - b0
	}
	return nil
}

// trainSetups is how many times a full run builds the stack; setup_s
// is their median.
const trainSetups = 5

// runTrain runs train-mnist. The workload is one fixed training job, so
// the measurement time does not change it.
func runTrain(seed int64, _ float64, full bool, tr *tracer) (*outcome, error) {
	setups := 1
	if full {
		setups = trainSetups
	}
	return runTrainSpec(trainMNISTSpec, seed, setups, tr)
}

// runTrainSpec builds the stack setups times (only the last one trains)
// and runs one training job.
func runTrainSpec(spec trainSpec, seed int64, setups int, tr *tracer) (*outcome, error) {
	out := newOutcome()
	out.info["geometry"] = map[string]any{
		"bits": spec.bits, "features": spec.features(), "pool": spec.pool,
		"hidden": spec.hidden, "batch": spec.batch, "batches": spec.batches,
		"epochs": spec.epochs, "test_samples": spec.test, "lr": spec.lr,
		"parallelism": "nproc", "key_pool": serverKeyPool, "codec": "binary",
	}
	d, err := makeTrainData(spec, seed)
	if err != nil {
		return nil, err
	}
	cfg := trainConfig(spec, seed)
	// The client encrypts X by columns (η = features) and by rows
	// (η = batch), and Y by columns (η = classes).
	etas := []int{spec.features(), spec.batch, mnist.Classes}

	var setupS []float64
	var st *stack
	for i := 0; i < setups; i++ {
		if st != nil {
			if err := st.Close(); err != nil {
				return nil, err
			}
			debug.FreeOSMemory() // see runServe
		}
		t0 := time.Now()
		if st, err = newStack(spec.bits, cfg, etas, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer st.Close()

	var kw keyWindow
	if tr != nil {
		if kw, err = openKeyWindow(st, tr); err != nil {
			return nil, err
		}
	}
	job, err := runTrainJob(spec, seed, st, d, tr)
	if err != nil {
		return nil, err
	}
	out.info["authority"] = st.authorityCounts()
	out.attempted = 1
	if !job.sameWeights || job.secureAcc != job.twinAcc {
		out.failed, out.mismatches = 1, 1
	}
	out.info["accuracy"] = map[string]any{"secure": job.secureAcc, "fixed_point_twin": job.twinAcc,
		"float_twin": job.plainAcc, "weights_match_fixed_point_twin": job.sameWeights}
	out.info["epoch_loss"] = job.report.EpochLoss
	steps := spec.epochs * spec.batches
	samplesPerS := float64(spec.samples()*spec.epochs) / job.report.TrainTime.Seconds()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.e2e("setup_s", "s", median(setupS))
	out.e2e("peak_rss_mb", "MB", rss)
	out.e2e("samples_per_s", "1/s", samplesPerS)
	out.e2e("latency_ms", "ms", ms(job.e2e))
	out.headline = job.e2e.Seconds()
	out.info["metrics"] = map[string]any{
		"setup_s": median(setupS), "setup_s_samples": setupS, "peak_rss_mb": rss,
		"fail_ratio":          float64(out.failed) / float64(out.attempted),
		"train_samples_per_s": samplesPerS, "train_e2e_s": job.e2e.Seconds(),
		"train_time_s": job.report.TrainTime.Seconds(),
	}

	if tr != nil {
		if err := kw.close(out, st, tr); err != nil {
			return nil, err
		}
		out.layer("client.encrypt_ms_per_sample", "ms", ms(job.encrypt)/float64(spec.samples()))
		out.layer("wire.submit_s", "s", job.submit.Seconds())
		out.layer("wire.submit_bytes", "B", float64(job.submitBytes))
		out.layer("service.train_s", "s", job.report.TrainTime.Seconds())
		out.layer("service.step_s_mean", "s", job.report.TrainTime.Seconds()/float64(steps))
		out.layer("nn.plain_step_ms", "ms", ms(job.plainStep))
		build, err := timeSolverBuild(spec.bits, trainSolverBound(spec, cfg))
		if err != nil {
			return nil, err
		}
		out.layer("dlog.table_build_s", "s", build.Seconds())
		for _, m := range servingOnly {
			out.layer(m.name, m.unit, 0)
		}
	}
	return out, nil
}

// trainSolverBound is the discrete-log bound service.Server computes for
// training on this geometry (the forward, gradient and loss terms).
func trainSolverBound(spec trainSpec, cfg service.Config) int64 {
	codec := fixedpoint.Default()
	bound := core.SolverBound(codec, spec.features(), 1, serviceMaxWeight, 1)
	bound = max(bound, core.SolverBound(codec, spec.batch, 1, serviceMaxWeight, gradScale))
	if cfg.ComputeLoss {
		bound = max(bound, core.SolverBound(codec, 1, 1, 25, 1))
	}
	return bound
}

// servingOnly lists the per-layer metrics of the prediction path, which
// training never touches.
var servingOnly = []struct{ name, unit string }{
	{"service.evals", "count"}, {"service.eval_busy_s", "s"}, {"service.eval_ms_per_sample", "ms"},
	{"wire.samples_per_eval", "count"}, {"wire.queue_wait_ms_p50", "ms"}, {"wire.queue_wait_ms_tail", "ms"},
	{"wire.queue_depth_max", "count"}, {"wire.rejected", "count"}, {"wire.overhead_ms_p50", "ms"},
	{"wire.bytes_per_request", "B"}, {"loadgen.late_ms_tail", "ms"},
}
