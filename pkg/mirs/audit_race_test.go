//go:build race

package mirs

// auditEvery is how often TestPickAndVictimSettle audits the state: on
// every 16th commit, release or spill under the race detector, which
// slows the single-threaded recounts about 27-fold (auditing every event
// took 270 s on a 2-vCPU x86-64 host). The build without it audits every
// event.
const auditEvery = 16

// raceBuild reports whether the race detector is on. TestSearchGolden
// skips under it: the search it pins is single-threaded, and the race
// detector stretches its 11 s to over two minutes on a 2-vCPU x86-64
// host.
const raceBuild = true
