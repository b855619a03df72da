package mapper

// SharedWindows returns how many of the windows the last Verify call
// scanned took an earlier identical window's verdict.
func (vs *VerifyState) SharedWindows() int { return vs.classes.shared() }

// shared counts the windows the last class pass put in an earlier
// window's class.
func (wc *windowClasses) shared() int {
	n := 0
	for _, k := range wc.of {
		if k >= 0 {
			n++
		}
	}
	return n - len(wc.classes)
}
