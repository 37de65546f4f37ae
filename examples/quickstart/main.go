// Quickstart: encrypt two 8-bit numbers, homomorphically add and compare
// them on the "cloud" side, and decrypt the results — the end-to-end flow
// of Fig. 1, entirely in this repository's TFHE implementation.
//
// The example uses the fast test parameter set so it finishes in about a
// second; switch to params.Default128() for the production 128-bit set.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"pytfhe/internal/backend"
	"pytfhe/internal/circuit"
	"pytfhe/internal/core"
	"pytfhe/internal/hdl"
	"pytfhe/internal/params"
)

func main() {
	const width = 8
	const a, b = 57, 184

	// --- client side: keys and encryption -------------------------------
	fmt.Println("generating keys (test parameters)...")
	kp, err := core.GenerateKeys(params.Test())
	if err != nil {
		log.Fatal(err)
	}

	// --- compile the circuit: sum and comparison of two 8-bit inputs ----
	m := hdl.New("quickstart")
	xa := m.InputBus("a", width)
	xb := m.InputBus("b", width)
	m.OutputBus("sum", m.AddExpand(xa, xb))
	m.Output("a_lt_b", m.LtU(xa, xb))
	prog, err := core.Compile(m.MustBuild())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %q: %d gates, depth %d, binary %d bytes\n",
		prog.Name, prog.Stats.Gates, prog.Stats.Depth, len(prog.Binary))

	bits := make([]bool, 2*width)
	for i := 0; i < width; i++ {
		bits[i] = a>>uint(i)&1 == 1
		bits[width+i] = b>>uint(i)&1 == 1
	}
	inputs := kp.EncryptBits(bits)
	fmt.Printf("encrypted %d bits (%d B of ciphertext)\n",
		len(inputs), len(inputs)*kp.Cloud.Params.CiphertextBytes())

	// --- server side: evaluate over ciphertexts only --------------------
	start := time.Now()
	be := backend.NewPlanned(kp.Cloud, 1, backend.DefaultBatch) // what `pytfhe run` builds by default
	defer be.Close()
	outs, err := core.Run(prog, be, inputs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evaluated homomorphically in %v\n", time.Since(start))

	// --- client side: decrypt -------------------------------------------
	outBits := kp.DecryptBits(outs)
	var sum uint64
	for i := 0; i < width+1; i++ {
		if outBits[i] {
			sum |= 1 << uint(i)
		}
	}
	lt := outBits[width+1]
	fmt.Printf("decrypted: %d + %d = %d, %d < %d = %v\n", a, b, sum, a, b, lt)
	if sum != a+b || lt != (a < b) {
		log.Fatal("homomorphic result is wrong!")
	}
	fmt.Println("OK")

	// Show the compact binary structure (Fig. 5/6 format).
	if err := checkConst(prog); err != nil {
		log.Fatal(err)
	}
}

func checkConst(prog *core.Program) error {
	if err := prog.Netlist.Validate(); err != nil {
		return err
	}
	_ = circuit.ConstTrue // referenced to show the IR surface in docs
	return nil
}
