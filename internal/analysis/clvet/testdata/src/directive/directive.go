// Testdata for the directive analyzer: the grammar is //repute:hotpath
// and //repute:allow <analyzer> -- <reason>; anything else that looks
// like a directive is reported, because an ignored directive fails
// open — a retired pipeline-package marker, for one, puts no package in
// pipedeterminism scope.
package directive

//pipevet:pipeline-package // want `unknown directive "//pipevet:pipeline-package`

//repute:pipeline-package // want `unknown directive "//repute:pipeline-package`

//repute:hotpath
func hot(buf []byte) []byte {
	//repute:allow hotalloc -- grows the caller's buffer
	return append(buf, 0)
}

//repute:hotpaht // want `unknown directive "//repute:hotpaht`
func typo() {}

func retired(n int) []int {
	//clvet:stateless // want `unknown directive "//clvet:stateless`
	//pipevet:allow hotalloc -- stale prefix // want `unknown directive "//pipevet:allow`
	//repute:allow -- no analyzer named // want `unknown directive "//repute:allow -- no analyzer`
	//repute:stateless // want `unknown directive "//repute:stateless`
	return make([]int, n)
}

// Prose that merely mentions //repute:frobnicate mid-comment is not a
// directive, and neither is a quoted one: "//clvet:stateless".
func prose() {}
