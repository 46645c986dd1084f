package a

import (
	mrand "math/rand/v2" // want `math/rand/v2 imported in library code`
)

func v2Aliased() int {
	return mrand.IntN(10)
}
