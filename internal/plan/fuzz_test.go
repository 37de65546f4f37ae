package plan

import (
	"errors"
	"testing"

	"pytfhe/internal/circuit"
	"pytfhe/internal/logic"
)

// fuzzNetlist decodes an arbitrary byte string into a valid netlist: a
// small input set (<= 8, so verification is always exhaustive), then one
// gate per three bytes with operands reduced into the already-defined
// node range, then a handful of outputs. Every decodable netlist passes
// circuit.Validate by construction.
func fuzzNetlist(data []byte) *circuit.Netlist {
	if len(data) < 5 {
		return nil
	}
	numInputs := 2 + int(data[0]%7)
	nl := &circuit.Netlist{Name: "fuzz", NumInputs: numInputs}
	rest := data[1:]
	maxGates := len(rest) / 3
	if maxGates > 48 {
		maxGates = 48
	}
	if maxGates == 0 {
		return nil
	}
	for i := 0; i < maxGates; i++ {
		b := rest[i*3 : i*3+3]
		avail := numInputs + i // nodes 1..avail are defined
		nl.Gates = append(nl.Gates, circuit.Gate{
			TT: logic.TT(b[0] % uint8(logic.NumKinds)),
			A:  circuit.NodeID(1 + int(b[1])%avail),
			B:  circuit.NodeID(1 + int(b[2])%avail),
		})
	}
	tail := rest[maxGates*3:]
	numOutputs := 1 + len(tail)%3
	for i := 0; i < numOutputs; i++ {
		var sel byte
		if i < len(tail) {
			sel = tail[i]
		}
		nl.Outputs = append(nl.Outputs, circuit.NodeID(1+int(sel)%nl.NumNodes()))
	}
	return nl
}

// soleWriteReadLater finds an instruction whose output ref is written
// exactly once in the whole plan and read by a later level or an output —
// dropping it is guaranteed to strand a reader (ErrOrder).
func soleWriteReadLater(p *Plan) (level, idx int, ok bool) {
	writes := map[Ref]int{}
	for _, lv := range p.levels {
		for _, ins := range lv {
			writes[ins.Out]++
		}
	}
	readLater := map[Ref]bool{}
	for _, ref := range p.outputs {
		if ref >= 0 {
			readLater[ref] = true
		}
	}
	for li := len(p.levels) - 1; li >= 0; li-- {
		for k, ins := range p.levels[li] {
			if writes[ins.Out] == 1 && readLater[ins.Out] {
				return li, k, true
			}
		}
		for _, ins := range p.levels[li] {
			if ins.A >= Ref(p.NumInputs) {
				readLater[ins.A] = true
			}
			if ins.B >= Ref(p.NumInputs) {
				readLater[ins.B] = true
			}
		}
	}
	return 0, 0, false
}

// crowdedLevel finds a level holding at least two instructions so a
// write-write collision can be seeded.
func crowdedLevel(p *Plan) (level int, ok bool) {
	for li, lv := range p.levels {
		if len(lv) >= 2 {
			return li, true
		}
	}
	return 0, false
}

// distinctFunctionPair finds two netlist gate nodes mapped to different
// exec nodes whose boolean functions provably differ under exhaustive
// simulation — merging their dedup entries must trip ErrDedup.
func distinctFunctionPair(nl *circuit.Netlist, p *Plan) (u, v circuit.NodeID, ok bool) {
	np := nl.NumInputs
	rounds := 1
	if np > 6 {
		rounds = 1 << (np - 6)
	}
	words := make(map[circuit.NodeID]uint64, nl.NumNodes())
	differ := make(map[[2]circuit.NodeID]bool)
	net := make([]uint64, nl.NumNodes()+1)
	in := make([]uint64, np)
	rng := &SimRNG{x: 1}
	for r := 0; r < rounds; r++ {
		SimFill(in, r, true, rng)
		for i := 0; i < np; i++ {
			net[i+1] = in[i]
		}
		for i, g := range nl.Gates {
			net[nl.GateID(i)] = EvalWord(g.TT, g.Arity, net, g.A, g.B, g.C)
		}
		for i := range nl.Gates {
			words[nl.GateID(i)] = net[nl.GateID(i)]
		}
		for i := range nl.Gates {
			for j := i + 1; j < len(nl.Gates); j++ {
				a, b := nl.GateID(i), nl.GateID(j)
				if p.execOf[a] != p.execOf[b] && words[a] != words[b] {
					differ[[2]circuit.NodeID{a, b}] = true
				}
			}
		}
	}
	for pair := range differ {
		return pair[0], pair[1], true
	}
	return 0, 0, false
}

// FuzzVerify drives the plan-soundness verifier from both sides: every
// plan the compiler produces for a decodable netlist must verify clean,
// and a seeded defect (dropped instruction, slot collision, wrong dedup
// merge — chosen by the fuzz bytes) must be rejected.
func FuzzVerify(f *testing.F) {
	f.Add([]byte("\x03plans-are-checked-exhaustively-here!"))
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b})
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33})
	f.Add([]byte("nand-nand-nand-nand-nand-nand-nand"))
	f.Add([]byte{0x06, 0x0e, 0x00, 0x01, 0x0e, 0x01, 0x00, 0x08, 0x02, 0x03, 0x01, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		nl := fuzzNetlist(data)
		if nl == nil {
			t.Skip("undecodable")
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("generated netlist invalid: %v", err)
		}
		p, err := Compile(nl)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		if _, err := Verify(nl, p); err != nil {
			t.Fatalf("compiled plan failed verification: %v", err)
		}

		// Seed one guaranteed-harmful defect; fall through the mutation
		// kinds until one has a candidate site in this plan.
		for attempt := 0; attempt < 3; attempt++ {
			switch (int(data[len(data)-1]) + attempt) % 3 {
			case 0: // dropped instruction
				li, k, ok := soleWriteReadLater(p)
				if !ok {
					continue
				}
				m := clonePlan(p)
				dropInstr(m, li, k)
				if _, err := Verify(nl, m); !errors.Is(err, ErrOrder) {
					t.Fatalf("dropped instruction: got %v, want ErrOrder", err)
				}
			case 1: // slot collision within a wavefront
				li, ok := crowdedLevel(p)
				if !ok {
					continue
				}
				m := clonePlan(p)
				m.levels[li][1].Out = m.levels[li][0].Out
				if _, err := Verify(nl, m); !errors.Is(err, ErrLifetime) {
					t.Fatalf("slot collision: got %v, want ErrLifetime", err)
				}
			case 2: // wrong dedup merge
				u, v, ok := distinctFunctionPair(nl, p)
				if !ok {
					continue
				}
				m := clonePlan(p)
				m.execOf[v] = m.execOf[u]
				if _, err := Verify(nl, m); !errors.Is(err, ErrDedup) {
					t.Fatalf("wrong dedup merge: got %v, want ErrDedup", err)
				}
			}
			return
		}
		t.Skip("plan too degenerate to mutate")
	})
}
