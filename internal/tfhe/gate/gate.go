// Package gate provides the bootstrapped-gate API of PyTFHE: encryption and
// decryption of single bits, and homomorphic evaluation of every gate kind
// in the logic alphabet and of multi-input LUTs. An Op names any of them
// as the netlist does, by one truth table and an arity (arity 0: a classic
// gate, its table the kind nibble). Every bootstrapped operation runs one
// path: its logic.Plan forms bias + Σ wᵢ·xᵢ from the operands, and one
// bootstrap reads the result off the plan's test vector.
// The ten two-input gates (AND, NAND, OR, NOR, XOR, XNOR, ANDNY, ANDYN,
// ORNY, ORYN) and each feasible LUT cost one bootstrap; NOT, COPY and the
// constants are linear and essentially free; MUX costs two bootstraps and
// one key switch, exactly as in the reference TFHE library.
//
//pytfhe:cryptoroot
package gate

import (
	"errors"
	"fmt"

	"pytfhe/internal/logic"
	"pytfhe/internal/params"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// Ciphertext is an encrypted bit: an LWE sample whose phase is +1/8 for
// true and -1/8 for false.
type Ciphertext = lwe.Sample

// mu18 is the torus constant 1/8, the canonical gate message amplitude.
// (A variable rather than a constant so that unsigned negation is legal.)
var mu18 = torus.Torus32(1) << 29

// NewCiphertext allocates a ciphertext for parameter set p.
func NewCiphertext(p *params.GateParams) *Ciphertext {
	return lwe.NewSample(p.LWEDimension)
}

// Encrypt encrypts one bit under the secret key.
func Encrypt(dst *Ciphertext, bit bool, sk *boot.SecretKey, rng *trand.Source) {
	mu := mu18
	if !bit {
		mu = -mu18
	}
	lwe.Encrypt(dst, mu, sk.Params.LWEStdev, sk.LWE, rng)
}

// Decrypt recovers the bit encrypted in src.
func Decrypt(src *Ciphertext, sk *boot.SecretKey) bool {
	return int32(lwe.Phase(src, sk.LWE)) > 0
}

// Trivial sets dst to the noiseless public constant bit.
func Trivial(dst *Ciphertext, bit bool) {
	mu := mu18
	if !bit {
		mu = -mu18
	}
	dst.NoiselessTrivial(mu)
}

// ErrNoPlan marks an operation with no one-bootstrap plan: a gate kind
// outside the alphabet, a free kind where a bootstrap is due (a batch
// member), a LUT arity out of range, or a table no weight vector
// separates (logic.PlanOf).
var ErrNoPlan = errors.New("gate: no bootstrap plan")

// Engine evaluates homomorphic gates. It owns per-worker scratch and is not
// safe for concurrent use; construct one Engine per goroutine over a shared
// CloudKey.
type Engine struct {
	Eval *boot.Evaluator

	p    *params.GateParams
	u1   *lwe.Sample // MUX intermediate, extracted dimension
	u2   *lwe.Sample
	musm *lwe.Sample // MUX sum before final key switch

	// Per-member bootstrap inputs and test vectors, grown on first use;
	// single operations use member 0.
	btmp []*lwe.Sample
	btv  []boot.TestVector
}

// NewEngine returns a gate engine bound to ck.
func NewEngine(ck *boot.CloudKey) *Engine {
	ext := ck.Params.ExtractedLWEDimension()
	e := &Engine{
		Eval: boot.NewEvaluator(ck),
		p:    ck.Params,
		u1:   lwe.NewSample(ext),
		u2:   lwe.NewSample(ext),
		musm: lwe.NewSample(ext),
	}
	e.growBatch(1)
	return e
}

// Params returns the engine's parameter set.
func (e *Engine) Params() *params.GateParams { return e.p }

// growBatch sizes the per-member scratch.
func (e *Engine) growBatch(n int) {
	for len(e.btmp) < n {
		e.btmp = append(e.btmp, lwe.NewSample(e.p.LWEDimension))
		e.btv = append(e.btv, make(boot.TestVector, logic.PlanCells))
	}
}

// prepare is the one member-preparation step of every bootstrapped
// operation: it forms member m's bootstrap input bias + Σ wᵢ·xᵢ over the
// operands (a, b, c) the plan reads, and its test vector, ±1/8 per cell.
// It writes engine scratch only, so an output written after every member
// is prepared may alias any operand.
func (e *Engine) prepare(m int, op Op, a, b, c *Ciphertext) error {
	pl, ok := logic.PlanOf(int(op.Arity), op.TT)
	if !ok {
		return fmt.Errorf("%w for %+v", ErrNoPlan, op)
	}
	tmp, tv := e.btmp[m], e.btv[m]
	tmp.NoiselessTrivial(pl.Bias)
	ins := [logic.MaxLUTArity]*Ciphertext{a, b, c}
	for i, x := range ins[:pl.Arity] {
		if x == nil {
			return fmt.Errorf("gate: %+v: operand %d is nil", op, i)
		}
		tmp.AddMulTo(pl.Weights[i], x)
	}
	for i, s := range pl.Cells {
		tv[i] = mu18
		if s < 0 {
			tv[i] = -mu18
		}
	}
	return nil
}

// Apply evaluates dst = op(a, b, c) now: a free classic kind (constants,
// COPY, NOT) linearly, any other op with one bootstrap of its plan. Only
// arity-3 LUTs read c, which may be nil otherwise. dst may alias any
// operand.
//
//pytfhe:bootstraps
func (e *Engine) Apply(op Op, dst, a, b, c *Ciphertext) error {
	if op.Arity == 0 {
		switch logic.Kind(op.TT) {
		case logic.False:
			Trivial(dst, false)
			return nil
		case logic.True:
			Trivial(dst, true)
			return nil
		case logic.COPY:
			dst.Copy(a)
			return nil
		case logic.COPYB:
			dst.Copy(b)
			return nil
		case logic.NOT:
			if dst != a {
				dst.Copy(a)
			}
			dst.Negate()
			return nil
		case logic.NOTB:
			if dst != b {
				dst.Copy(b)
			}
			dst.Negate()
			return nil
		}
	}
	if err := e.prepare(0, op, a, b, c); err != nil {
		return err
	}
	return e.Eval.BootstrapOne(dst, e.btv[0], e.btmp[0], true)
}

// Binary evaluates dst = kind(a, b) homomorphically. dst may alias a or b.
//
//pytfhe:bootstraps
func (e *Engine) Binary(kind logic.Kind, dst, a, b *Ciphertext) error {
	return e.Apply(Op{TT: logic.TTOf(kind)}, dst, a, b, nil)
}

// Not computes dst = ¬a without bootstrapping.
func (e *Engine) Not(dst, a *Ciphertext) { _ = e.Binary(logic.NOT, dst, a, a) }

// Copy computes dst = a.
func (e *Engine) Copy(dst, a *Ciphertext) { _ = e.Binary(logic.COPY, dst, a, a) }

// Constant sets dst to the public bit v.
func (e *Engine) Constant(dst *Ciphertext, v bool) { Trivial(dst, v) }

// Mux computes dst = sel ? a : b using two bootstraps and one key switch,
// following the reference library: u1 = BS(sel AND a), u2 = BS(¬sel AND b)
// — the AND and ANDNY plans without their key switch — and
// dst = KS(u1 + u2 + 1/8).
//
//pytfhe:bootstraps
func (e *Engine) Mux(dst, sel, a, b *Ciphertext) error {
	for _, half := range []struct {
		kind logic.Kind
		in   *Ciphertext
		out  *lwe.Sample
	}{{logic.AND, a, e.u1}, {logic.ANDNY, b, e.u2}} {
		if err := e.prepare(0, Op{TT: logic.TTOf(half.kind)}, sel, half.in, nil); err != nil {
			return err
		}
		if err := e.Eval.BootstrapOne(half.out, e.btv[0], e.btmp[0], false); err != nil {
			return fmt.Errorf("gate: mux: %w", err)
		}
	}

	// dst = u1 + u2 + 1/8, key-switched to the gate key. Exactly one of
	// u1, u2 is +1/8, so the sum is +1/8 (true) or -1/8 (false).
	e.musm.NoiselessTrivial(mu18)
	e.musm.AddTo(e.u1)
	e.musm.AddTo(e.u2)
	if err := e.CK().KS.Apply(dst, e.musm); err != nil {
		return fmt.Errorf("gate: mux key switch: %w", err)
	}
	return nil
}

// CK returns the engine's cloud key.
func (e *Engine) CK() *boot.CloudKey { return e.Eval.CK }
