// Package core is the top-level PyTFHE API: key generation, program
// compilation (netlist → optimized PyTFHE binary), bit encryption, and
// execution over any backend. It is the surface the example applications
// and the command-line tools build on; the subsystems it composes live in
// the sibling packages (tfhe/*, circuit, synth, asm, backend, cluster,
// gpu, chiseltorch, vipbench, frameworks).
//
//pytfhe:cryptoroot
package core

import (
	"fmt"
	"time"

	"pytfhe/internal/asm"
	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
	"pytfhe/internal/params"
	"pytfhe/internal/synth"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/torus"
	"pytfhe/internal/trand"
)

// KeyPair bundles the client's secret key with the evaluation ("cloud")
// key that is shipped to the server.
type KeyPair struct {
	Secret *boot.SecretKey
	Cloud  *boot.CloudKey
}

// GenerateKeys creates a fresh key pair for the given parameter set using
// system entropy.
func GenerateKeys(p *params.GateParams) (*KeyPair, error) {
	return generate(p, trand.New())
}

// GenerateKeysSeeded creates a deterministic key pair — for tests,
// benchmarks and reproducible experiments only.
func GenerateKeysSeeded(p *params.GateParams, seed []byte) (*KeyPair, error) {
	return generate(p, trand.NewSeeded(seed))
}

func generate(p *params.GateParams, rng *trand.Source) (*KeyPair, error) {
	sk, ck, err := boot.GenerateKeys(p, rng)
	if err != nil {
		return nil, err
	}
	return &KeyPair{Secret: sk, Cloud: ck}, nil
}

// Program is a compiled TFHE program: the optimized netlist plus its
// PyTFHE binary encoding (Fig. 5).
type Program struct {
	Name    string
	Netlist *circuit.Netlist
	Binary  []byte
	Stats   circuit.Stats
}

// Compile optimizes a netlist through the synthesis pipeline and assembles
// the PyTFHE binary.
func Compile(nl *circuit.Netlist) (*Program, error) {
	return compile(nl, synth.Optimize)
}

// CompileLUT is Compile through the LUT-clustering pipeline: after the
// standard passes converge, fanout-free cones of 2-input gates collapse
// into k-input programmable bootstraps (synth.OptimizeLUT), so the binary
// carries multi-input LUT records and every executor pays one bootstrap
// per cone instead of one per gate. It is the only place a program gains
// LUT records: loaders, executors and pytfhed run a binary as compiled.
func CompileLUT(nl *circuit.Netlist) (*Program, error) {
	return compile(nl, synth.OptimizeLUT)
}

func compile(nl *circuit.Netlist, optimize func(*circuit.Netlist) (*synth.Result, error)) (*Program, error) {
	res, err := optimize(nl)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	bin, err := asm.Assemble(res.Netlist)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Program{
		Name:    nl.Name,
		Netlist: res.Netlist,
		Binary:  bin,
		Stats:   res.Netlist.ComputeStats(),
	}, nil
}

// Load decodes a PyTFHE binary back into a runnable program. It accepts
// exactly the binaries `asm.Lint` passes without an error-severity
// finding (framing, record layout, wiring, gate types, LUT tables,
// outputs), so no separate lint pass is needed before a run.
func Load(bin []byte) (*Program, error) {
	nl, err := asm.Disassemble(bin)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Program{
		Name:    nl.Name,
		Netlist: nl,
		Binary:  append([]byte(nil), bin...),
		Stats:   nl.ComputeStats(),
	}, nil
}

// EncryptBits encrypts a plaintext bit vector under the secret key.
func (kp *KeyPair) EncryptBits(bits []bool) []*lwe.Sample {
	return backend.EncryptInputs(kp.Secret, bits)
}

// DecryptBits decrypts backend outputs.
func (kp *KeyPair) DecryptBits(cts []*lwe.Sample) []bool {
	return backend.DecryptOutputs(kp.Secret, cts)
}

// Run executes the program's netlist on the given backend.
func Run(p *Program, be backend.Backend, inputs []*lwe.Sample) ([]*lwe.Sample, error) {
	return be.Run(p.Netlist, inputs)
}

// RunPlain evaluates the program on cleartext bits (functional reference).
func RunPlain(p *Program, bits []bool) ([]bool, error) {
	return p.Netlist.Evaluate(bits)
}

// CalibrateGateTime measures the single-core cost of one bootstrapped gate
// under the cloud key by timing `samples` NAND evaluations. This is the
// calibration point every simulated platform uses.
func CalibrateGateTime(kp *KeyPair, samples int) (time.Duration, error) {
	if samples < 1 {
		samples = 1
	}
	eng := gate.NewEngine(kp.Cloud)
	rng := trand.NewSeeded([]byte("calibrate"))
	a := gate.NewCiphertext(kp.Cloud.Params)
	b := gate.NewCiphertext(kp.Cloud.Params)
	out := gate.NewCiphertext(kp.Cloud.Params)
	gate.Encrypt(a, true, kp.Secret, rng)
	gate.Encrypt(b, false, kp.Secret, rng)
	// Warm up FFT tables and caches.
	if err := eng.Binary(logic.NAND, out, a, b); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < samples; i++ {
		if err := eng.Binary(logic.NAND, out, a, b); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(samples), nil
}

// EncryptMessage encrypts a multi-valued message m in a space of msize
// equally spaced torus slots (the encoding programmable bootstrapping
// consumes; gates use msize = 8 with messages ±1).
func (kp *KeyPair) EncryptMessage(m int32, msize int32) *lwe.Sample {
	ct := lwe.NewSample(kp.Secret.Params.LWEDimension)
	lwe.Encrypt(ct, torus.ModSwitchToTorus32(m, msize), kp.Secret.Params.LWEStdev, kp.Secret.LWE, trand.New())
	return ct
}

// DecryptMessage decodes a multi-valued message.
func (kp *KeyPair) DecryptMessage(ct *lwe.Sample, msize int32) int32 {
	return lwe.Decrypt(ct, kp.Secret.LWE, msize)
}
