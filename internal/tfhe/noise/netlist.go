package noise

import (
	"fmt"
	"math"
	"strings"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
	"pytfhe/internal/params"
)

// DefaultMinSigmas is the sigma margin `pytfhe check`, the noise check of
// `pytfhe run -strict`, and pytfhed registration demand between the worst
// phase-error stdev and the decryption margin. Four sigmas bound the
// per-gate failure probability by erfc(4/√2) ≈ 6.3e-5; the built-in
// default128 set clears it with ~0.24 bits of headroom, so any regression
// in the parameter file or the noise model trips the check before it
// trips a decryption.
const DefaultMinSigmas = 4.0

// GateNoise is the analysis result for one bootstrapped gate: the
// worst-case variance of the linear combination entering its bootstrap,
// and the failure bound it implies.
type GateNoise struct {
	Gate  int            // gate index in nl.Gates
	ID    circuit.NodeID // node id (NumInputs+1+Gate)
	TT    logic.TT       // the gate's table, as circuit.Gate holds it
	Arity uint8          // LUT arity, 0 for classic gates
	Depth int            // bootstrap depth: refreshes on the longest path into this gate

	// PreVariance is the variance of the bootstrap input tmp = bias +
	// Σ wᵢ·xᵢ of the gate's logic.Plan (torus units). Sigmas is DecryptionMargin/stdev, and
	// FailureProb = erfc(Sigmas/√2) bounds the probability the blind
	// rotation reads the wrong message slot.
	PreVariance float64
	Sigmas      float64
	FailureProb float64
}

// describe names the gate for report text: the kind for classic gates, the
// arity and table for LUTs.
func (g GateNoise) describe() string {
	if g.Arity != 0 {
		return fmt.Sprintf("LUT%d[%#02x]", g.Arity, uint8(g.TT))
	}
	return logic.Kind(g.TT).String()
}

// NetlistReport is the result of the static noise-budget dataflow over one
// netlist under one parameter set.
type NetlistReport struct {
	Name      string // netlist name
	Params    string // parameter-set name
	MinSigmas float64
	Budget    Budget

	Gates        int
	Bootstrapped int
	LUTs         int // multi-input LUT gates (included in Bootstrapped)
	Outputs      int

	// MaxNoise is the bootstrapped gate with the lowest sigma margin (the
	// zero value when the netlist has no bootstrapped gates), and
	// CriticalDepth its bootstrap depth.
	MaxNoise      GateNoise
	CriticalDepth int

	// WorstOutput/WorstOutputSigmas track the output wire closest to a
	// decryption error: outputs decode by phase sign, so their margin is
	// the full 1/8 amplitude rather than the internal 1/16 slot
	// half-width. WorstOutput is -1 when every output is a noiseless
	// constant.
	WorstOutput       int
	WorstOutputSigmas float64

	// HeadroomBits is log2(worstSigmas/MinSigmas): how many times the
	// worst stdev could double before the netlist fails the check. +Inf
	// for a netlist with no noise-carrying wires.
	HeadroomBits float64

	// CircuitFailureProb is the union bound over every bootstrap and
	// every output read: P[any decryption error] <= Σ erfc(σ_i/√2),
	// capped at 1.
	CircuitFailureProb float64

	// OverBudget lists the gates (and OverBudgetOutputs the output
	// indices) whose sigma margin falls below MinSigmas.
	OverBudget        []GateNoise
	OverBudgetOutputs []int
}

// OK reports whether every gate and output clears the sigma margin.
func (r *NetlistReport) OK() bool {
	return len(r.OverBudget) == 0 && len(r.OverBudgetOutputs) == 0
}

// Err returns nil when the report is clean, and a descriptive error naming
// the worst offender otherwise.
func (r *NetlistReport) Err() error {
	if r.OK() {
		return nil
	}
	if len(r.OverBudget) > 0 {
		w := r.OverBudget[0]
		for _, g := range r.OverBudget[1:] {
			if g.Sigmas < w.Sigmas {
				w = g
			}
		}
		return fmt.Errorf("noise: netlist %q over budget under %s: gate %d (%s, depth %d) has %.2f sigmas of margin, need %.2f (%d gates, %d outputs over budget)",
			r.Name, r.Params, w.Gate, w.describe(), w.Depth, w.Sigmas, r.MinSigmas, len(r.OverBudget), len(r.OverBudgetOutputs))
	}
	return fmt.Errorf("noise: netlist %q over budget under %s: output %d has %.2f sigmas of margin, need %.2f",
		r.Name, r.Params, r.OverBudgetOutputs[0], r.WorstOutputSigmas, r.MinSigmas)
}

// String renders the per-netlist report `pytfhe check` prints.
func (r *NetlistReport) String() string {
	var b strings.Builder
	status := "OK"
	if !r.OK() {
		status = fmt.Sprintf("OVER BUDGET (%d gates, %d outputs)", len(r.OverBudget), len(r.OverBudgetOutputs))
	}
	fmt.Fprintf(&b, "noise budget %q under %s: %s\n", r.Name, r.Params, status)
	fmt.Fprintf(&b, "  gates %d (%d bootstrapped, %d LUTs), outputs %d, min sigmas %.1f\n",
		r.Gates, r.Bootstrapped, r.LUTs, r.Outputs, r.MinSigmas)
	if r.Bootstrapped > 0 {
		fmt.Fprintf(&b, "  max-noise gate: #%d %s at bootstrap depth %d (critical depth %d): stdev %.3g, %.2f sigmas, P[fail] %.3g\n",
			r.MaxNoise.Gate, r.MaxNoise.describe(), r.MaxNoise.Depth, r.CriticalDepth,
			math.Sqrt(r.MaxNoise.PreVariance), r.MaxNoise.Sigmas, r.MaxNoise.FailureProb)
	}
	if r.WorstOutput >= 0 {
		fmt.Fprintf(&b, "  worst output: #%d at %.2f sigmas\n", r.WorstOutput, r.WorstOutputSigmas)
	}
	fmt.Fprintf(&b, "  headroom %.2f bits, P[any decryption error] <= %.3g", r.HeadroomBits, r.CircuitFailureProb)
	return b.String()
}

// AnalyzeNetlist propagates worst-case noise variance gate by gate through
// nl under parameter set p: inputs carry the fresh encryption variance,
// free gates pass their operand variance through unchanged (NOT negates,
// COPY copies — neither amplifies), and each bootstrapped gate, classic or
// LUT, first forms its plan's combination bias + Σ wᵢ·xᵢ (variances add
// with the squared weights; the bias is noiseless) and then resets its
// output to the bootstrap variance. Every pre-bootstrap combination and every output
// wire must keep minSigmas standard deviations below its decryption
// margin; minSigmas <= 0 selects DefaultMinSigmas.
//
// The returned error covers only malformed inputs (invalid netlist,
// unknown gate kind); an over-budget netlist returns a report whose OK()
// is false and Err() is non-nil.
func AnalyzeNetlist(nl *circuit.Netlist, p *params.GateParams, minSigmas float64) (*NetlistReport, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if minSigmas <= 0 {
		minSigmas = DefaultMinSigmas
	}
	b := Analyze(p)
	r := &NetlistReport{
		Name:         nl.Name,
		Params:       p.Name,
		MinSigmas:    minSigmas,
		Budget:       b,
		Gates:        len(nl.Gates),
		Outputs:      len(nl.Outputs),
		WorstOutput:  -1,
		HeadroomBits: math.Inf(1),
	}

	// variance[id] and bdepth[id] for node ids 1..NumNodes (0 unused).
	variance := make([]float64, nl.NumNodes()+1)
	bdepth := make([]int32, nl.NumNodes()+1)
	for i := 1; i <= nl.NumInputs; i++ {
		variance[i] = b.FreshVariance
	}

	// record folds one bootstrapped gate's pre-bootstrap variance into the
	// report and resets its output to the refreshed bootstrap variance.
	record := func(gn GateNoise, pre float64, worstSigmas *float64) {
		gn.PreVariance = pre
		gn.Sigmas = math.Inf(1)
		if pre > 0 {
			gn.Sigmas = b.DecryptionMargin / math.Sqrt(pre)
			gn.FailureProb = math.Erfc(gn.Sigmas / math.Sqrt2)
		}
		r.CircuitFailureProb += gn.FailureProb
		if gn.Sigmas < *worstSigmas {
			*worstSigmas = gn.Sigmas
			r.MaxNoise = gn
			r.CriticalDepth = gn.Depth
		}
		if gn.Sigmas < minSigmas {
			r.OverBudget = append(r.OverBudget, gn)
		}
		variance[gn.ID] = b.BootstrapVariance
		bdepth[gn.ID] = int32(gn.Depth)
	}

	worstSigmas := math.Inf(1)
	for i := range nl.Gates {
		g := &nl.Gates[i]
		id := nl.GateID(i)
		if !g.NeedsBootstrap() {
			switch g.Kind() {
			case logic.False, logic.True:
				variance[id] = 0
			case logic.COPY, logic.NOT:
				variance[id] = variance[g.A]
				bdepth[id] = bdepth[g.A]
			case logic.COPYB, logic.NOTB:
				variance[id] = variance[g.B]
				bdepth[id] = bdepth[g.B]
			default:
				return nil, fmt.Errorf("noise: gate %d: free kind %v not modeled", i, g.Kind())
			}
			continue
		}
		// Every bootstrapped gate, classic or LUT, is one bootstrap of its
		// plan's combination bias + Σ wᵢ·xᵢ: the weights give the exact
		// variance amplification, and every plan keeps the 1/16 margin.
		pl, ok := logic.PlanOf(int(g.Arity), g.TT)
		if !ok {
			return nil, fmt.Errorf("noise: gate %d (arity %d, table %#02x) has no bootstrap plan", i, g.Arity, uint8(g.TT))
		}
		r.Bootstrapped++
		if g.IsLUT() {
			r.LUTs++ // a tally only: every gate runs the recipe below
		}
		var pre float64
		var d int32
		for k := 0; k < pl.Arity; k++ {
			op := g.Operand(k)
			c := float64(pl.Weights[k])
			pre += c * c * variance[op]
			d = max(d, bdepth[op])
		}
		record(GateNoise{Gate: i, ID: id, TT: g.TT, Arity: g.Arity, Depth: int(d) + 1}, pre, &worstSigmas)
	}

	// Outputs decode by phase sign, so the margin is the full ±1/8
	// amplitude (twice the internal slot half-width).
	outputMargin := 2 * b.DecryptionMargin
	r.WorstOutputSigmas = math.Inf(1)
	for i, out := range nl.Outputs {
		if out.IsConst() {
			continue
		}
		v := variance[out]
		if v <= 0 {
			continue
		}
		s := outputMargin / math.Sqrt(v)
		if s < r.WorstOutputSigmas {
			r.WorstOutputSigmas = s
			r.WorstOutput = i
		}
		r.CircuitFailureProb += math.Erfc(s / math.Sqrt2)
		if s < minSigmas {
			r.OverBudgetOutputs = append(r.OverBudgetOutputs, i)
		}
		if s < worstSigmas {
			worstSigmas = s
		}
	}
	if r.WorstOutput < 0 {
		r.WorstOutputSigmas = math.Inf(1)
	}
	if r.CircuitFailureProb > 1 {
		r.CircuitFailureProb = 1
	}
	if !math.IsInf(worstSigmas, 1) {
		r.HeadroomBits = math.Log2(worstSigmas / minSigmas)
	}
	return r, nil
}

// CheckNetlist is the strict-mode hook: it runs AnalyzeNetlist with the
// default sigma margin and folds an over-budget report into the error.
// Used by `pytfhe run -strict` and pytfhed program registration.
func CheckNetlist(nl *circuit.Netlist, p *params.GateParams) error {
	r, err := AnalyzeNetlist(nl, p, DefaultMinSigmas)
	if err != nil {
		return err
	}
	return r.Err()
}
