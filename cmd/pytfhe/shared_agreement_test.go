package main

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/plan"
	"pytfhe/internal/synth"
	"pytfhe/internal/vipbench"
)

// TestSharedAgreement is the serving scheduler's differential matrix: every
// examples/ circuit and every VIP-Bench kernel, in its classic form and
// LUT-clustered (what `pytfhed -lut` registers), replayed through
// backend.Shared against the plaintext interpreter. The two forms run
// concurrently under one key on complementary inputs, so each
// configuration also exercises two same-key runs whose level slices share
// kernel batches. Programs up to 1000 gates cover workers {1,2,3} × batch
// {1,16}; larger ones run at one configuration, and are skipped under
// -short and the race detector like the cluster agreement matrix (under
// -race so are the mid-sized ones: a bootstrap is ~40× slower there).
func TestSharedAgreement(t *testing.T) {
	sk, ck := agreeKeys(t)
	targets, err := exampleNetlists()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range vipbench.All() {
		if b.Name == "roberts-cross" {
			continue // examples/distributed is this kernel
		}
		nl, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		targets = append(targets, checkTarget{"vipbench/" + b.Name, nl})
	}

	type config struct{ workers, batch int }
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			gates := len(tg.nl.Gates)
			if gates > 1000 && (testing.Short() || raceEnabled) || gates > 100 && raceEnabled {
				t.Skipf("skipping %d-gate target under -short/-race", gates)
			}
			res, err := synth.OptimizeLUT(tg.nl)
			if err != nil {
				t.Fatal(err)
			}
			configs := []config{{3, 16}}
			if gates <= 1000 {
				configs = []config{{1, 1}, {1, 16}, {2, 1}, {2, 16}, {3, 1}, {3, 16}}
			}
			bits := patternBits(tg.nl.NumInputs)
			flipped := make([]bool, len(bits))
			for i, b := range bits {
				flipped[i] = !b
			}
			runs := []struct {
				form string
				nl   *circuit.Netlist
				in   []bool
			}{{"classic", tg.nl, bits}, {"lut", res.Netlist, flipped}}

			for _, cfg := range configs {
				ex := backend.NewShared(cfg.workers, cfg.batch)
				key, err := ex.RegisterKey(ck)
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				errs := make([]error, len(runs))
				for i, r := range runs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[i] = func() error {
							want, err := r.nl.Evaluate(r.in)
							if err != nil {
								return err
							}
							p, err := plan.Compile(r.nl)
							if err != nil {
								return err
							}
							outs, _, err := ex.Submit(context.Background(), key, p, backend.EncryptInputs(sk, r.in))
							if err != nil {
								return err
							}
							got := backend.DecryptOutputs(sk, outs)
							if len(got) != len(want) {
								return fmt.Errorf("%d outputs, want %d", len(got), len(want))
							}
							for o := range want {
								if got[o] != want[o] {
									return fmt.Errorf("output %d = %v, plaintext interpreter says %v", o, got[o], want[o])
								}
							}
							return nil
						}()
					}()
				}
				wg.Wait()
				ex.Close()
				for i, err := range errs {
					if err != nil {
						t.Fatalf("workers=%d batch=%d %s: %v", cfg.workers, cfg.batch, runs[i].form, err)
					}
				}
			}
		})
	}
}
