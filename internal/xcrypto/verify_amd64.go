//go:build !purego

package xcrypto

import (
	"crypto/sha512"
	"math/big"
	"sync"
)

// The eight-lane Ed25519 check under VerifyKey.VerifyBatch: crypto/ed25519's
// verification step for step — reject a signature that is not 64 bytes,
// has any of the top three bits of S set or a non-canonical S; k =
// SHA-512(R ‖ A ‖ M) mod L; R' = [S]B + [k](-A), encoded and compared
// bytewise with R, which is never decoded — with every field operation of
// the point arithmetic one call of the IFMA kernels (x25519_amd64.s) on
// all eight lanes. Both bases are fixed for a call: B always, and A
// because every signature of a batch is checked against the one key. So
// each has one table of its multiples -8..8, and every lane picks its
// entries by its own scalars' signed radix-16 digits, 64 windows of four
// doublings and two additions (Straus).
//
// This is variable time, unlike the ladder: a table index is a digit of a
// scalar, and a rejected lane is known early. That is sound because every
// input of a verification — key, message, signature, and so S and k — is
// public. Signing, whose nonce is secret, stays in crypto/ed25519.

// feAdd8 and feSub8 set out = a ± b, feAddSub8 both; every result is
// tight, from tight a and b.
//
//go:noescape
func feAdd8(out, a, b *fe8)

//go:noescape
func feSub8(out, a, b *fe8)

//go:noescape
func feAddSub8(sum, diff, a, b *fe8)

// edPoint is eight points in extended coordinates (X:Y:Z:T): x = X/Z,
// y = Y/Z, xy = T/Z. A point only doubled next may leave T stale.
type edPoint struct{ X, Y, Z, T fe8 }

// edCompleted is eight points as an addition or doubling leaves them:
// x = X/Z, y = Y/T.
type edCompleted struct{ X, Y, Z, T fe8 }

// edCached is eight points as an addition reads them: (Y+X, Y-X, 2Z, 2dT).
type edCached struct{ YplusX, YminusX, Z2, T2d fe8 }

// edTable is one base's multiples -8..8 in cached form, one lane's limbs
// each: entry d+8 is [d]P.
type edTable [17][4][5]uint64

// verifier is a key's fast path: its encoding and the table of -A.
type verifier struct {
	pub    []byte
	minusA edTable
}

// Field constants, each broadcast to every lane.
var (
	feOne, feD, feD2, feSqrtM1 fe8
	// edBase is the table of the base point B.
	edBase     edTable
	edBaseOnce sync.Once
)

// orderL is L (orderLBytes) as a number.
var orderL, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

func init() {
	if !haveX25519Kernel {
		return
	}
	d := [32]byte{
		0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75, 0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a, 0x70, 0x00,
		0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c, 0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c, 0x03, 0x52,
	}
	sqrtM1 := [32]byte{
		0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f, 0xad, 0x06, 0x18, 0x43, 0x2f,
		0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00, 0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f, 0x80, 0x24, 0x83, 0x2b,
	}
	for lane := range BatchLanes {
		feOne[0][lane] = 1
		feLoad(&feD, lane, &d)
		feLoad(&feSqrtM1, lane, &sqrtM1)
	}
	feAdd8(&feD2, &feD, &feD)
}

// newVerifier decodes pub as crypto/ed25519 does and builds the table of
// -A, or returns nil where the key does not decode.
func newVerifier(pub []byte) *verifier {
	edBaseOnce.Do(func() {
		// B's encoding: y = 4/5, x even.
		var enc [32]byte
		for i := range enc {
			enc[i] = 0x66
		}
		enc[0] = 0x58
		b, _ := edDecode(&enc)
		edBase.fill(b)
	})
	a, ok := edDecode((*[32]byte)(pub))
	if !ok {
		return nil
	}
	feSub8(&a.X, &fe8{}, &a.X)
	feSub8(&a.T, &fe8{}, &a.T)
	v := &verifier{pub: pub}
	v.minusA.fill(a)
	return v
}

// verify sets ok[i] to ed25519.Verify's verdict on sigs[i] over msgs[i]
// for up to eight lanes.
func (v *verifier) verify(msgs, sigs [][]byte, ok []bool) {
	var (
		sDigits, kDigits [BatchLanes][64]int8
		active           [BatchLanes]bool
		anyActive        bool
		h                = sha512.New()
		k                big.Int
	)
	for lane, sig := range sigs {
		ok[lane] = false
		if len(sig) != SignatureSize || sig[63]&224 != 0 || !canonicalScalar(sig[32:]) {
			continue
		}
		h.Reset()
		h.Write(sig[:32])
		h.Write(v.pub)
		h.Write(msgs[lane])
		var digest [64]byte
		radix16(&kDigits[lane], reduceScalar(&k, h.Sum(digest[:0])))
		radix16(&sDigits[lane], (*[32]byte)(sig[32:]))
		active[lane], anyActive = true, true
	}
	if !anyActive {
		return
	}
	var r [BatchLanes][32]byte
	v.mul(&sDigits, &kDigits, &r)
	for lane, sig := range sigs {
		ok[lane] = active[lane] && [32]byte(sig[:32]) == r[lane]
	}
}

// mul encodes [s]B + [k](-A) in every lane, from the scalars' digits.
func (v *verifier) mul(sDigits, kDigits *[BatchLanes][64]int8, out *[BatchLanes][32]byte) {
	var (
		acc edPoint
		r   edCompleted
		q   edCached
		s   scratch
	)
	for lane := range BatchLanes {
		acc.Y[0][lane], acc.Z[0][lane] = 1, 1
	}
	for i := 63; i >= 0; i-- {
		if i < 63 {
			for range 3 {
				r.double(&acc, &s)
				acc.project(&r, false)
			}
			r.double(&acc, &s)
			acc.project(&r, true)
		}
		q.gather(&v.minusA, kDigits, i)
		r.add(&acc, &q, &s)
		acc.project(&r, true)
		q.gather(&edBase, sDigits, i)
		r.add(&acc, &q, &s)
		acc.project(&r, false) // doubled or encoded next: T unused
	}
	var zInv, x, y, t fe8
	invert8(&zInv, &acc.Z, &t)
	feMul8(&x, &acc.X, &zInv)
	feMul8(&y, &acc.Y, &zInv)
	for lane := range out {
		var xb [32]byte
		feBytes(&out[lane], &y, lane)
		feBytes(&xb, &x, lane)
		out[lane][31] |= xb[0] & 1 << 7
	}
}

// scratch is the temporaries of double and add, kept by their caller:
// locals of this size would be zeroed on every call.
type scratch [4]fe8

// double sets r = 2p, reading p's X, Y and Z.
func (r *edCompleted) double(p *edPoint, s *scratch) {
	xx, yy, zz2, xPlusYSq := &s[0], &s[1], &s[2], &s[3]
	feSqr8(xx, &p.X, 1)
	feSqr8(yy, &p.Y, 1)
	feSqr8(zz2, &p.Z, 1)
	feAdd8(zz2, zz2, zz2)
	feAdd8(xPlusYSq, &p.X, &p.Y)
	feSqr8(xPlusYSq, xPlusYSq, 1)
	feAddSub8(&r.Y, &r.Z, yy, xx)
	feSub8(&r.X, xPlusYSq, &r.Y)
	feSub8(&r.T, zz2, &r.Z)
}

// add sets r = p + q.
func (r *edCompleted) add(p *edPoint, q *edCached, s *scratch) {
	pp, mm, tt2d, zz2 := &s[0], &s[1], &s[2], &s[3]
	feAddSub8(pp, mm, &p.Y, &p.X)
	feMul8(pp, pp, &q.YplusX)
	feMul8(mm, mm, &q.YminusX)
	feMul8(tt2d, &p.T, &q.T2d)
	feMul8(zz2, &p.Z, &q.Z2)
	feAddSub8(&r.Y, &r.X, pp, mm)
	feAddSub8(&r.Z, &r.T, zz2, tt2d)
}

// project sets p from r, with T only if withT.
func (p *edPoint) project(r *edCompleted, withT bool) {
	feMul8(&p.X, &r.X, &r.T)
	feMul8(&p.Y, &r.Y, &r.Z)
	feMul8(&p.Z, &r.Z, &r.T)
	if withT {
		feMul8(&p.T, &r.X, &r.Y)
	}
}

// cache sets c from p, every lane.
func (c *edCached) cache(p *edPoint) {
	feAddSub8(&c.YplusX, &c.YminusX, &p.Y, &p.X)
	feAdd8(&c.Z2, &p.Z, &p.Z)
	feMul8(&c.T2d, &p.T, &feD2)
}

// gather sets every lane of c to the entry of t its digit i picks.
func (c *edCached) gather(t *edTable, digits *[BatchLanes][64]int8, i int) {
	for lane := range BatchLanes {
		e := &t[digits[lane][i]+8]
		for j := range 5 {
			c.YplusX[j][lane] = e[0][j]
			c.YminusX[j][lane] = e[1][j]
			c.Z2[j][lane] = e[2][j]
			c.T2d[j][lane] = e[3][j]
		}
	}
}

// fill sets t to the multiples -8..8 of p, a point alike in every lane:
// [d]p by repeated addition, [-d]p as its negation (Y-X and Y+X swapped,
// 2dT negated).
func (t *edTable) fill(p edPoint) {
	var (
		acc  = p
		pc   edCached
		c    edCached
		r    edCompleted
		s    scratch
		negT fe8
	)
	pc.cache(&p)
	for j := range 5 {
		t[8][0][j], t[8][1][j], t[8][2][j], t[8][3][j] = feOne[j][0], feOne[j][0], 2*feOne[j][0], 0
	}
	for d := 1; d <= 8; d++ {
		if d > 1 {
			r.add(&acc, &pc, &s)
			acc.project(&r, true)
		}
		c.cache(&acc)
		feSub8(&negT, &fe8{}, &c.T2d)
		for j := range 5 {
			t[8+d][0][j], t[8+d][1][j], t[8+d][2][j], t[8+d][3][j] = c.YplusX[j][0], c.YminusX[j][0], c.Z2[j][0], c.T2d[j][0]
			t[8-d][0][j], t[8-d][1][j], t[8-d][2][j], t[8-d][3][j] = c.YminusX[j][0], c.YplusX[j][0], c.Z2[j][0], negT[j][0]
		}
	}
}

// edDecode decodes a point as crypto/ed25519 decodes a public key: y may
// be at or above p, and x = 0 with the sign bit set is accepted as x = 0.
// It fails where (y^2 - 1) / (dy^2 + 1) has no square root.
func edDecode(enc *[32]byte) (p edPoint, ok bool) {
	var y2, u, v, x fe8
	for lane := range BatchLanes {
		feLoad(&p.Y, lane, enc)
	}
	feSqr8(&y2, &p.Y, 1)
	feSub8(&u, &y2, &feOne)
	feMul8(&v, &y2, &feD)
	feAdd8(&v, &v, &feOne)
	if !sqrtRatio(&x, &u, &v) {
		return p, false
	}
	if enc[31]>>7 == 1 {
		feSub8(&x, &fe8{}, &x)
	}
	p.X, p.Z = x, feOne
	feMul8(&p.T, &x, &p.Y)
	return p, true
}

// sqrtRatio sets r to the non-negative square root of u/v and reports
// whether there is one, as crypto/ed25519's field does (SqrtRatio):
// r = uv^3 (uv^7)^((p-5)/8), corrected by sqrt(-1) where v r^2 = -u.
func sqrtRatio(r, u, v *fe8) bool {
	var v2, uv3, uv7, t, check, uNeg, uNegI fe8
	feSqr8(&v2, v, 1)
	feMul8(&t, &v2, v)
	feMul8(&uv3, u, &t)
	feSqr8(&t, &v2, 1)
	feMul8(&uv7, &uv3, &t)
	pow22523(&t, &uv7)
	feMul8(r, &uv3, &t)
	feSqr8(&t, r, 1)
	feMul8(&check, v, &t)
	feSub8(&uNeg, &fe8{}, u)
	feMul8(&uNegI, &uNeg, &feSqrtM1)
	correct, flipped, flippedI := feEqual(&check, u), feEqual(&check, &uNeg), feEqual(&check, &uNegI)
	if flipped || flippedI {
		feMul8(r, r, &feSqrtM1)
	}
	var rb [32]byte
	if feBytes(&rb, r, 0); rb[0]&1 == 1 {
		feSub8(r, &fe8{}, r)
	}
	return correct || flipped
}

// feEqual reports whether lane 0 of a and b hold the same value mod p.
func feEqual(a, b *fe8) bool {
	var ab, bb [32]byte
	feBytes(&ab, a, 0)
	feBytes(&bb, b, 0)
	return ab == bb
}

// pow22523 sets out = z^((p-5)/8) = z^(2^252-3) in every lane.
func pow22523(out, z *fe8) {
	var t, z11 fe8
	pow250(&t, z, &z11)
	feSqr8(&t, &t, 2) // 2^252 - 4
	feMul8(out, &t, z)
}

// canonicalScalar reports whether the 32 little-endian bytes are below L.
func canonicalScalar(s []byte) bool {
	for i := 31; i >= 0; i-- {
		if s[i] != orderLBytes[i] {
			return s[i] < orderLBytes[i]
		}
	}
	return false
}

// reduceScalar returns the 64-byte little-endian digest mod L,
// little-endian, computed in n.
func reduceScalar(n *big.Int, digest []byte) *[32]byte {
	var be [64]byte
	for i, c := range digest {
		be[63-i] = c
	}
	n.SetBytes(be[:])
	n.Mod(n, orderL)
	var k [32]byte
	n.FillBytes(be[:32])
	for i := range k {
		k[i] = be[31-i]
	}
	return &k
}

// radix16 writes s (below 2^255) as 64 signed digits in -8..8, least
// significant first: s = sum of out[i] * 16^i.
func radix16(out *[64]int8, s *[32]byte) {
	for i, b := range s {
		out[2*i], out[2*i+1] = int8(b&15), int8(b>>4)
	}
	var carry int8
	for i := range 63 {
		out[i] += carry
		carry = (out[i] + 8) >> 4
		out[i] -= carry << 4
	}
	out[63] += carry
}
