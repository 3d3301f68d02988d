package main

import (
	"time"

	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
)

// capture is what the shims observe besides time: the sizes of the sealed
// frames handed to the transport and a sample of the messages delivered to
// the protocols. The probes of probes.go replay both against the layers
// the bench cannot interpose on (channel, xcrypto, wire).
type capture struct {
	frameSizes map[int]uint64
	msgs       []*wire.Message
}

// msgSampleCap bounds the cloned message sample: the first deliveries of a
// run cover every message type an op produces (INIT, ECHO, CHOSEN, FINAL).
const msgSampleCap = 512

func newCapture() *capture { return &capture{frameSizes: make(map[int]uint64)} }

// timedTransport is the deploy.Options.Wrap shim: spans around Send, the
// delivery handler and After callbacks. Capturing happens before the span
// opens so it is charged to the caller, not to the transport.
type timedTransport struct {
	inner runtime.Transport
	rec   *recorder
	cap   *capture
	node  int32
}

var _ runtime.Transport = (*timedTransport)(nil)

func (t *timedTransport) Send(dst wire.NodeID, payload []byte) {
	t.cap.frameSizes[len(payload)]++
	t.rec.begin(spSend, t.node)
	t.inner.Send(dst, payload)
	t.rec.end()
}

func (t *timedTransport) SetHandler(h func(src wire.NodeID, payload []byte)) {
	t.inner.SetHandler(func(src wire.NodeID, payload []byte) {
		t.rec.begin(spHandler, t.node)
		h(src, payload)
		t.rec.end()
	})
}

func (t *timedTransport) After(d time.Duration, fn func()) {
	t.inner.After(d, func() {
		t.rec.begin(spAfter, t.node)
		fn()
		t.rec.end()
	})
}

func (t *timedTransport) Detach()            { t.inner.Detach() }
func (t *timedTransport) Now() time.Duration { return t.inner.Now() }

// timedProtocol is the runtime.Protocol shim around one engine.
type timedProtocol struct {
	inner runtime.Protocol
	rec   *recorder
	cap   *capture
	node  int32
}

var _ runtime.Protocol = (*timedProtocol)(nil)

func (p *timedProtocol) OnRound(rnd uint32) {
	p.rec.begin(spOnRound, p.node)
	p.inner.OnRound(rnd)
	p.rec.end()
}

func (p *timedProtocol) OnMessage(msg *wire.Message) {
	if len(p.cap.msgs) < msgSampleCap {
		p.cap.msgs = append(p.cap.msgs, msg.Clone())
	}
	p.rec.begin(spOnMessage, p.node)
	p.inner.OnMessage(msg)
	p.rec.end()
}

func (p *timedProtocol) OnFinish() {
	p.rec.begin(spOnFinish, p.node)
	p.inner.OnFinish()
	p.rec.end()
}

// timedHost is the runtime.Host shim handed to the engine constructors:
// the four sending capabilities are timed, everything else passes through
// the embedded host.
type timedHost struct {
	runtime.Host
	rec  *recorder
	node int32
}

func (h *timedHost) Multicast(dsts []wire.NodeID, msg *wire.Message, ackThreshold int) error {
	h.rec.begin(spHostMulticast, h.node)
	err := h.Host.Multicast(dsts, msg, ackThreshold)
	h.rec.end()
	return err
}

func (h *timedHost) Send(dst wire.NodeID, msg *wire.Message) error {
	h.rec.begin(spHostSend, h.node)
	err := h.Host.Send(dst, msg)
	h.rec.end()
	return err
}

func (h *timedHost) SendAck(dst wire.NodeID, received *wire.Message) error {
	h.rec.begin(spHostSendAck, h.node)
	err := h.Host.SendAck(dst, received)
	h.rec.end()
	return err
}

func (h *timedHost) Flush() {
	h.rec.begin(spHostFlush, h.node)
	h.Host.Flush()
	h.rec.end()
}
