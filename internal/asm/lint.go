package asm

import "pytfhe/internal/circuit"

// Binary-level diagnostic codes, complementing the graph-level codes of
// internal/circuit.
const (
	CodeTruncated    = "truncated"     // byte length not a whole instruction count
	CodeEmpty        = "empty"         // no instructions at all
	CodeBadHeader    = "bad-header"    // first instruction is not a header
	CodeBadLayout    = "bad-layout"    // input/gate/output records out of order
	CodeGateCount    = "gate-count"    // header gate count disagrees with stream
	CodeLUTTruncated = "lut-truncated" // LUT lead without its extension word
)

// Lint statically verifies a program binary without executing it — the
// pre-flight check before committing a cluster to a multi-hour FHE run.
// It reports every binary-level defect the decoder meets (truncation, bad
// header, out-of-order or unknown records, LUT framing, header/stream
// gate-count disagreement), then hands the recovered gate graph to
// circuit.Lint for cycle, wiring, gate-type, output and dead-code analysis
// plus the depth/fan-out report. Lint(bin).Err() is nil exactly when
// Disassemble(bin) succeeds.
func Lint(bin []byte) *circuit.Report {
	nl, _, defects := decodeProgram(bin)
	rep := &circuit.Report{}
	if nl != nil {
		rep = circuit.Lint(nl)
	}
	rep.Name = "program"
	diags := make([]circuit.Diagnostic, 0, len(defects)+len(rep.Diags))
	for _, d := range defects {
		diags = append(diags, circuit.Diagnostic{Severity: circuit.SevError, Code: d.code, Message: d.err.Error()})
	}
	rep.Diags = append(diags, rep.Diags...)
	return rep
}
