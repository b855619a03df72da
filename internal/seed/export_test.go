package seed

// WalkSteps returns the ExtendLeft calls the walks of sc's last DP
// selection made and the FM steps they charged, lookups included and the
// final seeds' searches not.
func (sc *Scratch) WalkSteps() (ranks, charged int) { return sc.walk.ranks, sc.walk.fmSteps }
