package sgxp2p

import "sgxp2p/internal/committee"

// Committee election (the Appendix H sharding use case), re-exported so
// the examples and downstream users build on the beacon through one
// import.
type (
	// Partition is a committee assignment over the network.
	Partition = committee.Partition
	// Elector forms beacon-driven committees.
	Elector = committee.Elector
)

// NewElector builds an elector partitioning n nodes into k committees
// using beacon randomness.
func NewElector(src Source, n, k int) (*Elector, error) {
	return committee.New(src, n, k)
}

// FormCommittees is the pure partition function behind Elector, exposed
// for offline auditing against a beacon trace.
func FormCommittees(entropy []byte, n, k int) *Partition {
	return committee.Form(entropy, n, k)
}

// MinCommitteeSize returns the smallest committee size keeping an honest
// majority with probability at least 1-epsilon under byzantine fraction
// beta (Chernoff bound, as in the paper's Lemma F.1).
func MinCommitteeSize(beta, epsilon float64) (int, error) {
	return committee.MinCommitteeSize(beta, epsilon)
}
