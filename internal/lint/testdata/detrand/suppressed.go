package a

import (
	//tclint:allow detrand -- golden test for the suppression path
	quiet "math/rand"
)

func suppressed() int {
	return quiet.Intn(3)
}
