//go:build !purego

package xcrypto

import "encoding/binary"

// The eight-lane X25519 kernel (x25519_amd64.s): up to eight scalars
// against up to eight u-coordinates, one Montgomery ladder whose every
// field operation runs on all eight lanes at once. Each lane climbs by its
// own scalar, handed over as a per-step lane mask (laneSchedule); one
// private key against eight remote keys is that schedule with all lanes
// alike. The ladder's control flow is fixed (255 steps), its swaps are
// masked blends and the schedule is read at the public step index, so
// like crypto/ecdh's ladder it neither branches on nor indexes by secret
// data.

// fe8 is eight field elements, limb-major: fe8[i][lane] is limb i (radix
// 2^52) of the lane's element.
type fe8 [5][8]uint64

// ladderAsm runs the Montgomery ladder from the base points x1, each lane
// for its own clamped scalar as laneSchedule lays them out, and writes
// the projective result (x2 : z2).
//
//go:noescape
func ladderAsm(x1 *fe8, sched *[256]uint8, x2, z2 *fe8)

//go:noescape
func feMul8(out, a, b *fe8)

// feSqr8 squares a n >= 1 times into out.
//
//go:noescape
func feSqr8(out, a *fe8, n int)

func xgetbv0() uint32

// What the kernel needs: AVX512F is CPUID leaf 7 EBX bit 16 and AVX512IFMA
// bit 21; the operating system must save the opmask and both halves of the
// ZMM file (XCR0 bits 5-7) besides SSE and AVX state (bits 1-2), which it
// says through OSXSAVE (leaf 1 ECX bit 27).
const (
	x25519Leaf7 = 1<<16 | 1<<21
	osxsave     = 1 << 27
	xcr0ZMM     = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
)

// haveX25519Kernel is the one choice between the batch's two paths.
var haveX25519Kernel = cpuid7EBX()&x25519Leaf7 == x25519Leaf7 &&
	cpuid1ECX()&osxsave != 0 && xgetbv0()&xcr0ZMM == xcr0ZMM

const (
	mask52 = 1<<52 - 1
	mask47 = 1<<47 - 1
)

// x25519Kernel writes X25519(k, points[i]) to out[i] for the up to eight
// lanes of points, k being lane i's scalar in sched, byte-identical to
// crypto/ecdh: the scalar is clamped (laneSchedule), the u-coordinate's
// top bit ignored and a value at or above p reduced. A low-order point
// yields all zeros, as in crypto/ecdh before its check.
func x25519Kernel(sched *[256]uint8, points [][32]byte, out [][32]byte) {
	var x1, x2, z2, t fe8
	for lane := range points {
		feLoad(&x1, lane, &points[lane])
	}
	ladderAsm(&x1, sched, &x2, &z2)
	invert8(&x1, &z2, &t)
	feMul8(&x2, &x2, &x1)
	for lane := range points {
		feBytes(&out[lane], &x2, lane)
	}
}

// feLoad sets lane's element of v to the 32-byte little-endian u, bit 255
// ignored: tight, though not reduced below p.
func feLoad(v *fe8, lane int, u *[32]byte) {
	v[0][lane] = binary.LittleEndian.Uint64(u[0:]) & mask52
	v[1][lane] = binary.LittleEndian.Uint64(u[6:]) >> 4 & mask52
	v[2][lane] = binary.LittleEndian.Uint64(u[13:]) & mask52
	v[3][lane] = binary.LittleEndian.Uint64(u[19:]) >> 4 & mask52
	v[4][lane] = binary.LittleEndian.Uint64(u[24:]) >> 16 & mask47
}

// invert8 sets out = z^(p-2) = 1/z in every lane (0 for 0), by the
// addition chain of crypto/ecdh's field.Element.Invert: 254 squarings and
// 11 multiplications. t is scratch.
func invert8(out, z, t *fe8) {
	var z11 fe8
	pow250(t, z, &z11)
	feSqr8(t, t, 5)      // 2^255 - 2^5
	feMul8(out, t, &z11) // 2^255 - 21
}

// pow250 sets out = z^(2^250-1) and z11 = z^11, the chain crypto/ecdh's
// field.Element shares between Invert and Pow22523.
func pow250(out, z, z11 *fe8) {
	var z2, z9, z2_5_0, z2_10_0, z2_20_0, z2_50_0, z2_100_0, t fe8
	feSqr8(&z2, z, 1)              // 2
	feSqr8(&t, &z2, 2)             // 8
	feMul8(&z9, &t, z)             // 9
	feMul8(z11, &z9, &z2)          // 11
	feSqr8(&t, z11, 1)             // 22
	feMul8(&z2_5_0, &t, &z9)       // 2^5 - 1
	feSqr8(&t, &z2_5_0, 5)         // 2^10 - 2^5
	feMul8(&z2_10_0, &t, &z2_5_0)  // 2^10 - 1
	feSqr8(&t, &z2_10_0, 10)       // 2^20 - 2^10
	feMul8(&z2_20_0, &t, &z2_10_0) // 2^20 - 1
	feSqr8(&t, &z2_20_0, 20)       // 2^40 - 2^20
	feMul8(&t, &t, &z2_20_0)       // 2^40 - 1
	feSqr8(&t, &t, 10)             // 2^50 - 2^10
	feMul8(&z2_50_0, &t, &z2_10_0) // 2^50 - 1
	feSqr8(&t, &z2_50_0, 50)       // 2^100 - 2^50
	feMul8(&z2_100_0, &t, &z2_50_0)
	feSqr8(&t, &z2_100_0, 100) // 2^200 - 2^100
	feMul8(&t, &t, &z2_100_0)  // 2^200 - 1
	feSqr8(&t, &t, 50)         // 2^250 - 2^50
	feMul8(out, &t, &z2_50_0)  // 2^250 - 1
}

// feBytes writes lane's element of v (limbs 0-3 below 2^52, limb 4 below
// 2^48) as the canonical 32-byte little-endian encoding of its value
// modulo p, without a data-dependent branch.
func feBytes(out *[32]byte, v *fe8, lane int) {
	l0, l1, l2, l3, l4 := v[0][lane], v[1][lane], v[2][lane], v[3][lane], v[4][lane]
	// Twice fold what is at or above 2^255 back as 19 times itself and
	// carry: the first pass can leave limb 4 at exactly 2^47, the second
	// cannot, so the value ends below 2^255.
	for range 2 {
		l0 += 19 * (l4 >> 47)
		l4 &= mask47
		l1 += l0 >> 52
		l0 &= mask52
		l2 += l1 >> 52
		l1 &= mask52
		l3 += l2 >> 52
		l2 &= mask52
		l4 += l3 >> 52
		l3 &= mask52
	}
	// Below 2^255 the value is at or above p exactly when adding 19
	// reaches 2^255; then subtracting p is adding 19 and dropping 2^255.
	q := (l0 + 19) >> 52
	q = (l1 + q) >> 52
	q = (l2 + q) >> 52
	q = (l3 + q) >> 52
	q = (l4 + q) >> 47
	l0 += 19 * q
	l1 += l0 >> 52
	l0 &= mask52
	l2 += l1 >> 52
	l1 &= mask52
	l3 += l2 >> 52
	l2 &= mask52
	l4 += l3 >> 52
	l3 &= mask52
	l4 &= mask47
	binary.LittleEndian.PutUint64(out[0:], l0|l1<<52)
	binary.LittleEndian.PutUint64(out[8:], l1>>12|l2<<40)
	binary.LittleEndian.PutUint64(out[16:], l2>>24|l3<<28)
	binary.LittleEndian.PutUint64(out[24:], l3>>36|l4<<16)
}
