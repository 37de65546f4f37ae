package logic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestClassicPlans lists the ten classic rows as the TFHE library's gate
// bootstrapping writes them — bias in eighths of the torus, then the two
// operand weights — each read by the constant +1/8 test vector. Free and
// out-of-range kinds have no plan.
func TestClassicPlans(t *testing.T) {
	rows := map[Kind][3]int32{
		NAND:  {1, -1, -1},
		AND:   {-1, 1, 1},
		OR:    {1, 1, 1},
		NOR:   {-1, -1, -1},
		XOR:   {2, 2, 2},
		XNOR:  {-2, -2, -2},
		ANDNY: {-1, -1, 1},
		ANDYN: {-1, 1, -1},
		ORNY:  {1, -1, 1},
		ORYN:  {1, 1, -1},
	}
	for k := Kind(0); k < 256-1; k++ {
		p, ok := PlanOf(0, TT(k))
		row, want := rows[k]
		if ok != want {
			t.Fatalf("%v: has plan %v, want %v", k, ok, want)
		}
		if !ok {
			continue
		}
		if p.Arity != 2 || p.Bias != uint32(row[0])<<29 || p.Weights != [MaxLUTArity]int32{row[1], row[2]} {
			t.Errorf("%v: plan %v, want bias %d/8 and weights (%d, %d)", k, p, row[0], row[1], row[2])
		}
		if p.Cells != [PlanCells]int8{1, 1, 1, 1} {
			t.Errorf("%v: cells %v, want the constant +1/8 test vector", k, p.Cells)
		}
	}
}

// TestPlanTablePinned hashes every plan's effective recipe — the bias,
// the weights and the lower-half test vector in torus units (±1/8 per
// cell) — over the ten classic kinds and every feasible arity-2 and
// arity-3 table. The hash was computed from the recipes the gate engine
// ran before classic gates and LUTs shared one plan table (a LUT's
// half-slot offset counted as its 1/16 bias), so a change to any recipe,
// and with it to some ciphertext, must re-pin it on purpose.
func TestPlanTablePinned(t *testing.T) {
	const want = "719f6a9fc48cdfd1ccc4731ca6cd3af5f9187f3cecf17dcc299b396529712820"
	h := sha256.New()
	rows := 0
	for _, arity := range []int{0, 2, 3} {
		for tt := 0; tt < 1<<(1<<max(arity, 2)); tt++ {
			p, ok := PlanOf(arity, TT(tt))
			if !ok {
				continue
			}
			buf := []byte{byte(arity), byte(tt)}
			buf = binary.LittleEndian.AppendUint32(buf, p.Bias)
			for _, w := range p.Weights {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
			}
			for _, c := range p.Cells {
				v := uint32(1) << 29
				if c < 0 {
					v = -v
				}
				buf = binary.LittleEndian.AppendUint32(buf, v)
			}
			h.Write(buf)
			rows++
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want || rows != 72 {
		t.Fatalf("plan table: %d rows hash %s, want 72 rows hash %s", rows, got, want)
	}
}
