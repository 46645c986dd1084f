package a

import (
	//tclint:allow detrand -- golden test for the suppression path
	quiet "math/rand"
)

func suppressed() int {
	return quiet.Intn(3)
}

// stale carries an allow naming no analyzer of the suite, which is what
// deleting an analyzer leaves behind: the directive itself is reported.
func stale() int {
	/* want `names "seedflow", which is not a tclint analyzer` */ //tclint:allow seedflow -- its analyzer is gone
	return 3
}
