package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"sgxp2p/internal/channel"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/enclave"
	"sgxp2p/internal/tcpnet"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

// channel, xcrypto, wire and enclave have no boundary the bench can
// interpose on without touching the program, so they are timed here by
// calling their public functions directly on the mix the shims captured.

// sizeQuantiles returns k sizes at evenly spaced quantiles of the captured
// frame-size histogram: a replay list with the histogram's shape.
func sizeQuantiles(hist map[int]uint64, k int) []int {
	sizes := make([]int, 0, len(hist))
	var total uint64
	for s, c := range hist {
		sizes = append(sizes, s)
		total += c
	}
	if total == 0 {
		return nil
	}
	sort.Ints(sizes)
	out := make([]int, 0, k)
	var cum uint64
	i := 0
	for q := 0; q < k; q++ {
		target := (2*uint64(q) + 1) * total / (2 * uint64(k)) // the (q+½)/k quantile
		for cum+hist[sizes[i]] <= target {
			cum += hist[sizes[i]]
			i++
		}
		out = append(out, sizes[i])
	}
	return out
}

// probeRNG is the entropy source of every probe enclave: seeded, so the
// probes time the same key material on every run.
func probeRNG() *rand.Rand { return rand.New(rand.NewSource(0x9e0be)) }

func enclaveOptions(real bool, cache *enclave.KeyCache) []enclave.Option {
	opts := []enclave.Option{enclave.WithKeyCache(cache)}
	if !real {
		opts = append(opts, enclave.WithModelKEX())
	}
	return opts
}

func newSealer(real bool) channel.Sealer {
	if real {
		return channel.RealSealer{}
	}
	return channel.NewModelSealer()
}

// linkPair establishes the two ends of one link the way deploy.New does.
func linkPair(real bool) (a, b *channel.Link, err error) {
	rng, clock, cache := probeRNG(), enclave.NewWallClock(), enclave.NewKeyCache()
	ea, err := enclave.Launch(deploy.DefaultProgram, 0, rng, clock, enclaveOptions(real, cache)...)
	if err != nil {
		return nil, nil, err
	}
	eb, err := enclave.Launch(deploy.DefaultProgram, 1, rng, clock, enclaveOptions(real, cache)...)
	if err != nil {
		return nil, nil, err
	}
	if a, err = channel.NewLink(ea, 1, eb.DHPublic(), newSealer(real)); err != nil {
		return nil, nil, err
	}
	if b, err = channel.NewLink(eb, 0, ea.DHPublic(), newSealer(real)); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// probeChannel replays the captured frame sizes through one link with the
// workload's sealer and returns the mean cost of sealing and of opening a
// frame of that mix.
func probeChannel(real bool, frameSizes []int) (sealNs, openNs float64, err error) {
	const reps = 16
	a, b, err := linkPair(real)
	if err != nil {
		return 0, 0, err
	}
	overhead := newSealer(real).SealedSize(0)
	var sealBuf, openBuf []byte
	plain := make([]byte, 0)
	var sealT, openT time.Duration
	for _, size := range frameSizes {
		n := max(size-overhead, 1)
		if cap(plain) < n {
			plain = make([]byte, n)
		}
		plain = plain[:n]
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			if sealBuf, err = a.SealEncodedAppend(sealBuf[:0], plain); err != nil {
				return 0, 0, err
			}
		}
		t1 := time.Now()
		for r := 0; r < reps; r++ {
			if openBuf, err = b.OpenRawAppend(openBuf[:0], sealBuf); err != nil {
				return 0, 0, err
			}
		}
		sealT += t1.Sub(t0)
		openT += time.Since(t1)
	}
	n := float64(len(frameSizes) * reps)
	return float64(sealT) / n, float64(openT) / n, nil
}

// probeXcrypto times one LinkCipher seal+open at a payload size.
func probeXcrypto(size, reps int) (float64, error) {
	var keys xcrypto.SessionKeys
	rng := probeRNG()
	rng.Read(keys.Enc[:])
	rng.Read(keys.Mac[:])
	c, err := xcrypto.NewLinkCipher(keys)
	if err != nil {
		return 0, err
	}
	plain := make([]byte, size)
	var sealed, opened []byte
	start := time.Now()
	for r := 0; r < reps; r++ {
		if sealed, err = c.SealAppend(sealed[:0], nil, plain); err != nil {
			return 0, err
		}
		if opened, err = c.OpenAppend(opened[:0], sealed); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(reps), nil
}

// wireCosts are the mean encode and decode costs of the captured message
// sample and of the ACK the runtime answers each of them with.
type wireCosts struct {
	encNs, decNs       float64
	ackEncNs, ackDecNs float64
	bytesP50           float64
}

func timeWire(msgs []*wire.Message, reps int) (encNs, decNs float64, err error) {
	var buf []byte
	var scratch wire.Message
	encoded := make([][]byte, len(msgs))
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, m := range msgs {
			if buf, err = m.AppendEncode(buf[:0]); err != nil {
				return 0, 0, err
			}
		}
	}
	encT := time.Since(start)
	for i, m := range msgs {
		if encoded[i], err = m.Encode(); err != nil {
			return 0, 0, err
		}
	}
	start = time.Now()
	for r := 0; r < reps; r++ {
		for _, e := range encoded {
			if err = wire.DecodeInto(&scratch, e); err != nil {
				return 0, 0, err
			}
		}
	}
	n := float64(len(msgs) * reps)
	return float64(encT) / n, float64(time.Since(start)) / n, nil
}

func probeWire(sample []*wire.Message) (wireCosts, error) {
	if len(sample) == 0 {
		return wireCosts{}, errors.New("no delivered message was captured")
	}
	var c wireCosts
	var err error
	reps := max(1, 20000/len(sample))
	if c.encNs, c.decNs, err = timeWire(sample, reps); err != nil {
		return c, err
	}
	first := sample[0]
	ack := &wire.Message{
		Type: wire.TypeAck, Sender: 1, Initiator: first.Initiator, Instance: first.Instance,
		Seq: first.Seq, Round: first.Round, HasValue: true,
	}
	if c.ackEncNs, c.ackDecNs, err = timeWire([]*wire.Message{ack}, 20000); err != nil {
		return c, err
	}
	sizes := make([]float64, len(sample))
	for i, m := range sample {
		sizes[i] = float64(m.EncodedSize())
	}
	c.bytesP50 = median(sizes)
	return c, nil
}

// setupCosts are the per-call costs of the steps deploy.New repeats per
// node and per link, in microseconds, at the workload's crypto mode.
type setupCosts struct {
	launchUs, attestVerifyUs, newLinkUs float64
}

// probeSetup medians 200 direct calls of each step. A link is timed as
// deploy.New pays for it: the two directions of a pair share one key
// cache, so the first derives the session keys and the second finds them.
func probeSetup(real bool) (setupCosts, error) {
	const pairs = 100
	rng, clock := probeRNG(), enclave.NewWallClock()
	service, err := enclave.NewAttestationService(rng)
	if err != nil {
		return setupCosts{}, err
	}
	measurement := xcrypto.Measure(deploy.DefaultProgram)
	var launch, attest, link []float64
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for p := 0; p < pairs; p++ {
		cache := enclave.NewKeyCache()
		var encl [2]*enclave.Enclave
		for i := range encl {
			t0 := time.Now()
			if encl[i], err = enclave.Launch(deploy.DefaultProgram, wire.NodeID(i), rng, clock, enclaveOptions(real, cache)...); err != nil {
				return setupCosts{}, err
			}
			t1 := time.Now()
			q := service.Attest(encl[i])
			if err = enclave.VerifyQuote(service.VerifyKey(), measurement, q); err != nil {
				return setupCosts{}, err
			}
			launch = append(launch, us(t1.Sub(t0)))
			attest = append(attest, us(time.Since(t1)))
		}
		for i := range encl {
			t0 := time.Now()
			if _, err = channel.NewLink(encl[i], wire.NodeID(1-i), encl[1-i].DHPublic(), newSealer(real)); err != nil {
				return setupCosts{}, err
			}
			link = append(link, us(time.Since(t0)))
		}
	}
	// The two directions cost very differently, so the per-link figure is
	// their mean, not a median that would pick one of them.
	var linkSum float64
	for _, l := range link {
		linkSum += l
	}
	return setupCosts{median(launch), median(attest), linkSum / float64(len(link))}, nil
}

// probeTelemetry re-runs up to maxCalls ops of the workload on a fresh
// public-API cluster with the library's own tracer recording causal spans,
// and returns the mean wall time per call and telemetry events per op.
func probeTelemetry(s spec, seed int64, limit time.Duration, maxCalls int) (perCall time.Duration, eventsPerOp float64, err error) {
	tracer := telemetry.New(telemetry.Options{Spans: true})
	s.warmup = min(s.warmup, 3) // recording is several times slower; three calls warm the buffers
	r := &run{spec: s, seed: seed, telemetry: tracer}
	if err = r.setup(1, 1); err != nil {
		return 0, 0, err
	}
	w, err := r.measure(limit, maxCalls)
	if err != nil {
		return 0, 0, err
	}
	if r.firstFail != nil {
		return 0, 0, fmt.Errorf("with telemetry on: %w", r.firstFail)
	}
	return w.wall / time.Duration(len(r.calls)), float64(w.events) / float64(w.ops), nil
}

// tcpCosts are the loopback readings of the live transport.
type tcpCosts struct {
	pumpPerS, rttUsP50 float64
	drops              uint64
}

// probeTCP runs two tcpnet ports over host loopback, one connection each
// way: a ping-pong for the round-trip time, then a one-way pump of frames
// with the captured sizes, kept to a window the writer queue can hold so
// that queue_drops reads 0 unless the transport itself sheds frames.
func probeTCP(frameSizes []int) (tcpCosts, error) {
	const (
		pings   = 300
		frames  = 20000
		window  = 512
		timeout = 10 * time.Second
	)
	a, err := tcpnet.Listen(0, "127.0.0.1:0")
	if err != nil {
		return tcpCosts{}, err
	}
	defer a.Close()
	b, err := tcpnet.Listen(1, "127.0.0.1:0")
	if err != nil {
		return tcpCosts{}, err
	}
	defer b.Close()
	reg := telemetry.NewMetrics()
	a.SetMetrics(reg)
	addrs := map[wire.NodeID]string{0: a.Addr(), 1: b.Addr()}
	a.Connect(addrs)
	b.Connect(addrs)

	var echo atomic.Bool
	var received atomic.Int64
	pong := make(chan struct{}, 1)
	echo.Store(true)
	b.SetHandler(func(src wire.NodeID, payload []byte) {
		if echo.Load() {
			b.Send(src, payload)
		} else {
			received.Add(1)
		}
	})
	a.SetHandler(func(wire.NodeID, []byte) { pong <- struct{}{} })

	if len(frameSizes) == 0 {
		return tcpCosts{}, errors.New("no frame was captured")
	}
	deadline := time.After(timeout)
	buf := make([]byte, slices.Max(frameSizes))
	rtts := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		t0 := time.Now()
		a.Send(1, buf[:frameSizes[i%len(frameSizes)]])
		select {
		case <-pong:
		case <-deadline:
			return tcpCosts{}, errors.New("tcpnet ping-pong timed out")
		}
		rtts = append(rtts, float64(time.Since(t0))/float64(time.Microsecond))
	}

	echo.Store(false)
	start := time.Now()
	for sent := 0; sent < frames; {
		if int64(sent)-received.Load() >= window {
			if time.Since(start) > timeout {
				return tcpCosts{}, errors.New("tcpnet pump timed out")
			}
			time.Sleep(20 * time.Microsecond)
			continue
		}
		a.Send(1, buf[:frameSizes[sent%len(frameSizes)]])
		sent++
	}
	dropped := reg.Counter("tcp_frames_dropped_total").Value()
	for received.Load()+int64(dropped) < frames {
		if time.Since(start) > timeout {
			return tcpCosts{}, errors.New("tcpnet pump timed out")
		}
		time.Sleep(20 * time.Microsecond)
	}
	elapsed := time.Since(start)
	return tcpCosts{
		pumpPerS: float64(received.Load()) / elapsed.Seconds(),
		rttUsP50: median(rtts),
		drops:    dropped,
	}, nil
}
