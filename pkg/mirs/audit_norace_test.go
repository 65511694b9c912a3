//go:build !race

package mirs

// auditEvery is how often TestPickAndVictimSettle audits the state:
// after every commit, release and spill (see audit_race_test.go).
const auditEvery = 1

// raceBuild reports whether the race detector is on.
const raceBuild = false
