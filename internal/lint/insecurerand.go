package lint

import "strings"

// insecureRand reports math/rand imports in any package reachable from a
// //pytfhe:cryptoroot package: the TFHE scheme, torus arithmetic, the
// secure sampler and the key-generation surface, whose randomness must all
// come from a crypto/rand-seeded source. math/rand is deterministic and
// seedable; using it for key material or ciphertext noise silently
// destroys the security of the scheme (the classic TFHE deployment defect
// TFHE-Coder catalogues), so the rule is reachability-based rather than
// per-package: a helper package pulled into a key-generation path is held
// to the same standard.
type insecureRand struct{}

func (*insecureRand) Name() string { return "insecure-rand" }
func (*insecureRand) Doc() string {
	return "math/rand imported by code reachable from a //pytfhe:cryptoroot package"
}

func (a *insecureRand) Check(m *Module, pkg *Package) []Finding {
	if !reachableFromCryptoRoots(m)[pkg.Path] {
		return nil
	}
	var findings []Finding
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				findings = append(findings, Finding{
					Analyzer: a.Name(),
					Pos:      m.Fset.Position(imp.Pos()),
					Message:  "package on a crypto path imports " + path + "; draw from a crypto/rand-seeded source instead",
				})
			}
		}
	}
	return findings
}

// reachableFromCryptoRoots computes, once per module, the set of package
// paths reachable (over module-internal import edges) from the crypto
// roots — including the roots themselves.
func reachableFromCryptoRoots(m *Module) map[string]bool {
	if m.cryptoReach != nil {
		return m.cryptoReach
	}
	reach := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		pkg, ok := m.Packages[path]
		if reach[path] || !ok {
			return
		}
		reach[path] = true
		for _, imp := range pkg.Types.Imports() {
			visit(imp.Path())
		}
	}
	for path, pkg := range m.Packages {
		if m.marked("cryptoroot", pkg.Types) {
			visit(path)
		}
	}
	m.cryptoReach = reach
	return reach
}
