// A dot import or an alias hides the package name from every use site;
// the import path is what the check reads, so neither hides it.
package a

import (
	. "math/rand" // want `math/rand imported in library code`
)

func dotImported() int {
	return Intn(10)
}
