package xcrypto

// BatchLanes is how many agreements one call of the batch kernel
// (x25519_amd64.s) computes side by side: a caller that collects remote
// keys for DeriveSessionKeysBatch loses nothing by collecting this many.
const BatchLanes = 8

// x25519BatchMin is the fewest agreements a kernel call is worth: the call
// costs the same at any lane count, so a smaller group goes through
// crypto/ecdh one by one. BenchmarkX25519Batch on a 2-vCPU Xeon (Emerald
// Rapids, AVX-512 IFMA), medians of five: crypto/ecdh 43.4–44.5 µs per
// agreement at every lane count; the kernel 44.0, 22.4, 11.7 and 6.9 µs
// per agreement at 1, 2, 4 and 8 lanes. One lane breaks even, two halve
// the cost.
const x25519BatchMin = 2

// DeriveSessionKeysBatch is DeriveSessionKeys toward every key of remotes:
// keys[i] and errs[i] are what DeriveSessionKeys(remotes[i]) returns, byte
// for byte and error for error. keys and errs must be at least as long as
// remotes. Where the CPU has the kernel, each group of up to eight remote
// keys costs one eight-lane ladder.
func (kp *KeyPair) DeriveSessionKeysBatch(remotes [][PublicKeySize]byte, keys []SessionKeys, errs []error) {
	kp.deriveBatch(remotes, keys, errs, x25519BatchMin)
}

// deriveBatch is DeriveSessionKeysBatch with the kernel taking every group
// of at least minLanes keys; the tests run it at 1. It returns how many
// agreements the kernel computed.
func (kp *KeyPair) deriveBatch(remotes [][PublicKeySize]byte, keys []SessionKeys, errs []error, minLanes int) (kernelLanes int) {
	var shared [BatchLanes][32]byte
	for len(remotes) > 0 {
		n := min(len(remotes), BatchLanes)
		kernel := haveX25519Kernel && n >= minLanes
		if kernel {
			x25519Kernel(&kp.scalar, remotes[:n], shared[:n])
			kernelLanes += n
		}
		for i := range n {
			// A low-order remote key gives the all-zero secret; crypto/ecdh
			// then says why in its own words.
			if !kernel || shared[i] == [32]byte{} {
				keys[i], errs[i] = kp.DeriveSessionKeys(remotes[i])
			} else {
				keys[i], errs[i] = kp.sessionKeys(shared[i][:], &remotes[i]), nil
			}
		}
		remotes, keys, errs = remotes[n:], keys[n:], errs[n:]
	}
	return kernelLanes
}
