package boot

import (
	"fmt"
	"testing"
	"time"

	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/tfhe/tgsw"
	"pytfhe/internal/tfhe/tlwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// TestBootstrapBatchMatchesSingle is the batch-equivalence property test:
// BootstrapBatch must be bit-exact with B independent Bootstrap calls on
// the same inputs, across batch sizes including ones that exercise scratch
// growth and the skip-at-zero gather path.
func TestBootstrapBatchMatchesSingle(t *testing.T) {
	rng := trand.NewSeeded([]byte("boot-batch"))
	p := params.Test()
	_, ck, err := GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	single := NewEvaluator(ck)
	batch := NewBatchEvaluator(ck, 2) // deliberately small: force growth

	for _, b := range []int{1, 2, 3, 7, 64} {
		t.Run(fmt.Sprintf("B%d", b), func(t *testing.T) {
			src := make([]*lwe.Sample, b)
			mu := make([]torus.Torus32, b)
			want := make([]*lwe.Sample, b)
			got := make([]*lwe.Sample, b)
			for m := 0; m < b; m++ {
				src[m] = lwe.NewSample(p.LWEDimension)
				for i := range src[m].A {
					src[m].A[i] = rng.Torus32()
				}
				src[m].B = rng.Torus32()
				mu[m] = torus.Torus32(1) << 29
				if m%3 == 0 {
					mu[m] = rng.Torus32()
				}
				want[m] = lwe.NewSample(p.LWEDimension)
				got[m] = lwe.NewSample(p.LWEDimension)
			}
			for m := 0; m < b; m++ {
				if err := single.Bootstrap(want[m], mu[m], src[m]); err != nil {
					t.Fatal(err)
				}
			}
			if err := batch.BootstrapBatch(got, mu, src); err != nil {
				t.Fatal(err)
			}
			for m := 0; m < b; m++ {
				if got[m].B != want[m].B {
					t.Fatalf("member %d: body %#x, want %#x", m, got[m].B, want[m].B)
				}
				for i := range want[m].A {
					if got[m].A[i] != want[m].A[i] {
						t.Fatalf("member %d mask %d: %#x, want %#x", m, i, got[m].A[i], want[m].A[i])
					}
				}
				if got[m].Variance != want[m].Variance {
					t.Fatalf("member %d: variance %g, want %g", m, got[m].Variance, want[m].Variance)
				}
			}
		})
	}
}

// TestBootstrapBatchWoKSMatchesSingle covers the no-key-switch form of the
// batch path against single BootstrapWoKS calls.
func TestBootstrapBatchWoKSMatchesSingle(t *testing.T) {
	rng := trand.NewSeeded([]byte("boot-batch-woks"))
	p := params.Test()
	_, ck, err := GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	single := NewEvaluator(ck)
	batch := NewBatchEvaluator(ck, 4)

	const b = 5
	src := make([]*lwe.Sample, b)
	mu := make([]torus.Torus32, b)
	want := make([]*lwe.Sample, b)
	got := make([]*lwe.Sample, b)
	for m := 0; m < b; m++ {
		src[m] = lwe.NewSample(p.LWEDimension)
		for i := range src[m].A {
			src[m].A[i] = rng.Torus32()
		}
		src[m].B = rng.Torus32()
		mu[m] = rng.Torus32()
		want[m] = lwe.NewSample(p.ExtractedLWEDimension())
		got[m] = lwe.NewSample(p.ExtractedLWEDimension())
		if err := single.BootstrapWoKS(want[m], mu[m], src[m]); err != nil {
			t.Fatal(err)
		}
	}
	tvs := make([]TestVector, b)
	for m := range tvs {
		tvs[m] = mu[m : m+1]
	}
	if err := batch.BootstrapMany(got, tvs, src, false); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < b; m++ {
		if got[m].B != want[m].B {
			t.Fatalf("member %d: body %#x, want %#x", m, got[m].B, want[m].B)
		}
		for i := range want[m].A {
			if got[m].A[i] != want[m].A[i] {
				t.Fatalf("member %d mask %d: %#x, want %#x", m, i, got[m].A[i], want[m].A[i])
			}
		}
	}
}

// TestBootstrapLUTBatchMatchesSingle checks a batch of programmable members
// against per-member BootstrapOne, covering lower-half messages and the
// negacyclic upper-half wraparound.
func TestBootstrapLUTBatchMatchesSingle(t *testing.T) {
	rng := trand.NewSeeded([]byte("boot-batch-lut"))
	p := params.Test()
	sk, ck, err := GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	single := NewEvaluator(ck)
	batch := NewBatchEvaluator(ck, 1)

	const msize = 8
	table := []int32{3, 0, 6, 5}
	tv := make(TestVector, len(table))
	for m, v := range table {
		tv[m] = torus.ModSwitchToTorus32(v, msize)
	}

	// One member per message slot, including upper-half (wraparound) slots.
	const b = msize
	src := make([]*lwe.Sample, b)
	want := make([]*lwe.Sample, b)
	got := make([]*lwe.Sample, b)
	tvs := make([]TestVector, b)
	for m := 0; m < b; m++ {
		tvs[m] = tv
		src[m] = lwe.NewSample(p.LWEDimension)
		lwe.Encrypt(src[m], torus.ModSwitchToTorus32(int32(m), msize), p.LWEStdev, sk.LWE, rng)
		src[m].B += halfSlot(msize)
		want[m] = lwe.NewSample(p.LWEDimension)
		got[m] = lwe.NewSample(p.LWEDimension)
		if err := single.BootstrapOne(want[m], tv, src[m], true); err != nil {
			t.Fatal(err)
		}
	}
	if err := batch.BootstrapMany(got, tvs, src, true); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < b; m++ {
		if got[m].B != want[m].B {
			t.Fatalf("slot %d: body %#x, want %#x", m, got[m].B, want[m].B)
		}
		for i := range want[m].A {
			if got[m].A[i] != want[m].A[i] {
				t.Fatalf("slot %d mask %d: %#x, want %#x", m, i, got[m].A[i], want[m].A[i])
			}
		}
		// Wraparound semantics carry over: upper-half slots decrypt to -lut.
		dec := lwe.Decrypt(got[m], sk.LWE, msize)
		wantMsg := table[m%4]
		if m >= msize/2 {
			wantMsg = (msize - wantMsg) % msize
		}
		if dec != wantMsg {
			t.Fatalf("slot %d decrypts to %d, want %d", m, dec, wantMsg)
		}
	}
}

// TestBootstrapLUTBatchValidation mirrors the single-path validation: every
// member's test vector has 1..N cells, and there is one per member.
func TestBootstrapLUTBatchValidation(t *testing.T) {
	rng := trand.NewSeeded([]byte("boot-batch-lut-bad"))
	p := params.Test()
	_, ck, err := GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	batch := NewBatchEvaluator(ck, 1)
	in := []*lwe.Sample{lwe.NewSample(p.LWEDimension)}
	out := []*lwe.Sample{lwe.NewSample(p.LWEDimension)}
	if err := batch.BootstrapMany(out, []TestVector{{}}, in, true); err == nil {
		t.Fatal("empty test vector accepted")
	}
	if err := batch.BootstrapMany(out, []TestVector{make(TestVector, p.PolyDegree+1)}, in, true); err == nil {
		t.Fatal("oversized test vector accepted")
	}
	if err := batch.BootstrapMany(out, nil, in, true); err == nil {
		t.Fatal("test vector count mismatch accepted")
	}
	if err := batch.BootstrapBatch(out, nil, in); err == nil {
		t.Fatal("mu length mismatch accepted")
	}
}

// TestBatchProfilePhases: a batched dispatch times its blind rotation and
// key switch into the evaluator's profile.
func TestBatchProfilePhases(t *testing.T) {
	rng := trand.NewSeeded([]byte("boot-batch-prof"))
	p := params.Test()
	_, ck, err := GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	batch := NewBatchEvaluator(ck, 4)
	batch.Profile = true
	const b = 3
	src := make([]*lwe.Sample, b)
	mu := make([]torus.Torus32, b)
	dst := make([]*lwe.Sample, b)
	for m := 0; m < b; m++ {
		src[m] = lwe.NewSample(p.LWEDimension)
		dst[m] = lwe.NewSample(p.LWEDimension)
		mu[m] = 1 << 29
	}
	if err := batch.BootstrapBatch(dst, mu, src); err != nil {
		t.Fatal(err)
	}
	if prof := batch.Prof; prof.BlindRotate <= 0 || prof.KeySwitch <= 0 {
		t.Fatalf("phase timings not recorded: %+v", prof)
	}
}

// TestBootstrapAllocationFree: once an evaluator has grown to a batch, a
// bootstrap of that batch — blind rotation, extraction and the batched key
// switch — allocates nothing, single gates included.
func TestBootstrapAllocationFree(t *testing.T) {
	rng := trand.NewSeeded([]byte("boot-allocs"))
	p := params.Test()
	_, ck, err := GenerateKeys(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(ck)
	const b = 16
	src, dst, mu := make([]*lwe.Sample, b), make([]*lwe.Sample, b), make([]torus.Torus32, b)
	for m := range src {
		src[m], dst[m], mu[m] = lwe.NewSample(p.LWEDimension), lwe.NewSample(p.LWEDimension), 1<<29
		for i := range src[m].A {
			src[m].A[i] = rng.Torus32()
		}
	}
	for name, fn := range map[string]func() error{
		"Bootstrap":      func() error { return ev.Bootstrap(dst[0], mu[0], src[0]) },
		"BootstrapBatch": func() error { return ev.BootstrapBatch(dst, mu, src) },
	} {
		if err := fn(); err != nil { // grow the scratch
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(5, func() {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations per call", name, n)
		}
	}
}

// bootBench returns a cloud key for p and count fresh encryptions under its
// gate key. Distinct random masks make every member rotate at (almost)
// every key index, so a bootstrap streams the whole bootstrapping key.
func bootBench(b *testing.B, p *params.GateParams, count int) (*CloudKey, []*lwe.Sample, []*lwe.Sample, []torus.Torus32) {
	b.Helper()
	rng := trand.NewSeeded([]byte("boot-bench-" + p.Name))
	sk, ck, err := GenerateKeys(p, rng)
	if err != nil {
		b.Fatal(err)
	}
	src, dst, mu := make([]*lwe.Sample, count), make([]*lwe.Sample, count), make([]torus.Torus32, count)
	for m := range src {
		src[m], dst[m], mu[m] = lwe.NewSample(p.LWEDimension), lwe.NewSample(p.LWEDimension), 1<<29
		lwe.Encrypt(src[m], torus.ModSwitchToTorus32(int32(m%8), 8), p.LWEStdev, sk.LWE, rng)
	}
	return ck, src, dst, mu
}

// BenchmarkKernelBootstrapBatch is the batch sweep: one BootstrapBatch
// dispatch (blind rotation over the real bootstrapping key, extraction, key
// switch) per op at growing batch sizes, with ns/member as the comparable
// figure; it is why backend.DefaultBatch is 16 (EXPERIMENTS.md,
// "Key-resident evaluation").
func BenchmarkKernelBootstrapBatch(b *testing.B) {
	for _, p := range []*params.GateParams{params.Default128(), params.Test()} {
		b.Run(p.Name, func(b *testing.B) {
			ck, src, dst, mu := bootBench(b, p, 64)
			for _, size := range []int{1, 4, 8, 16, 32, 64} {
				b.Run(fmt.Sprint(size), func(b *testing.B) {
					ev := NewBatchEvaluator(ck, size)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := ev.BootstrapBatch(dst[:size], mu[:size], src[:size]); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/member")
				})
			}
		})
	}
}

// BenchmarkKernelBootstrapReconcile checks that the layers add up at
// Default128, at batch 1 and at 16 (backend.DefaultBatch). Every iteration times one
// BootstrapBatch of the batch and, in turn, its layers run by hand: n
// streamed CMux rotations (one per bootstrapping-key entry, every member
// against each entry), one extraction per member and the batched key
// switch. sum/boot is (CMux + extract + key switch) ÷ bootstrap; timing
// both sides in the same iteration keeps host drift out of the ratio. What
// the layers leave out is programming the accumulators and the mod switch.
func BenchmarkKernelBootstrapReconcile(b *testing.B) {
	p := params.Default128()
	const batch = 16
	ck, src, dst, mu := bootBench(b, p, batch)
	rng := trand.NewSeeded([]byte("boot-reconcile"))
	gp := tgsw.Params{Levels: p.DecompLevels, BaseLog: p.DecompBaseLog}
	for _, size := range []int{1, batch} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			ev := NewBatchEvaluator(ck, size)
			sc := tgsw.NewScratch(p.PolyDegree, p.RingCount, gp)
			accs, extrs := make([]*tlwe.Sample, size), make([]*lwe.Sample, size)
			for m := range accs {
				accs[m], extrs[m] = tlwe.NewSample(p.PolyDegree, p.RingCount), lwe.NewSample(p.ExtractedLWEDimension())
				for _, poly := range accs[m].A {
					for j := range poly.Coefs {
						poly.Coefs[j] = rng.Torus32()
					}
				}
			}
			rot := make([][]int, len(ck.BK))
			for i := range rot {
				rot[i] = make([]int, size)
				for m := range rot[i] {
					rot[i][m] = 1 + int(rng.Uint32()%uint32(2*p.PolyDegree-1))
				}
			}
			var ks lwe.SwitchScratch
			var boot, cmux, extract, keySwitch time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if err := ev.BootstrapBatch(dst[:size], mu[:size], src[:size]); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				for k, g := range ck.BK {
					sc.CMuxRotateBatchHalf(accs, g, rot[k])
				}
				t2 := time.Now()
				for m, acc := range accs {
					tlwe.ExtractSample(extrs[m], acc)
				}
				t3 := time.Now()
				if err := ck.KS.ApplyBatch(dst[:size], extrs, &ks); err != nil {
					b.Fatal(err)
				}
				t4 := time.Now()
				boot, cmux, extract, keySwitch = boot+t1.Sub(t0), cmux+t2.Sub(t1), extract+t3.Sub(t2), keySwitch+t4.Sub(t3)
			}
			members := float64(b.N * size)
			b.ReportMetric(float64(boot.Nanoseconds())/members, "boot-ns/member")
			b.ReportMetric(float64(cmux.Nanoseconds())/members, "cmux-ns/member")
			b.ReportMetric(float64(keySwitch.Nanoseconds())/members, "ks-ns/member")
			b.ReportMetric(float64(cmux+extract+keySwitch)/float64(boot), "sum/boot")
		})
	}
}
