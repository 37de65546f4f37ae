package service

// Typo's directive is unknown; misplaced carries a type's directive, and
// one in its body that is on no declaration (pytfhe-directive, three).
//
//pytfhe:bootstrap
type Typo struct{}

//pytfhe:runstate
func misplaced() {
	//pytfhe:bootstraps
}
