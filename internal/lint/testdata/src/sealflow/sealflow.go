// Golden test for the sealflow analyzer: wire-encoded plaintext may only
// reach a network Send sink after passing through channel.Seal*. Violations
// sit next to the sealed (legal) paths, covering the unbatched and the
// batch-outbox pipelines.
package sealflow

import (
	"internal/channel"
	"internal/tcpnet"
	"internal/wire"
)

// leakDirect is the deliberate plaintext-to-tcpnet leak: the encoded
// message goes straight to the transport.
func leakDirect(p *tcpnet.Port, m *wire.Message) error {
	encoded, err := m.Encode()
	if err != nil {
		return err
	}
	p.Send(1, encoded) // want "payload plaintext from wire.Message.Encode reaches network sink tcpnet.Port.Send"
	return nil
}

// leakViaHelper routes the plaintext through an intermediate function; the
// interprocedural summary of forward carries the sink back to this caller.
func leakViaHelper(p *tcpnet.Port, m *wire.Message) error {
	encoded, err := m.AppendEncode(nil)
	if err != nil {
		return err
	}
	forward(p, encoded) // want "payload plaintext from wire.Message.AppendEncode reaches network sink tcpnet.Port.Send"
	return nil
}

func forward(p *tcpnet.Port, b []byte) {
	p.Send(2, b)
}

// leakBatch leaks the batch outbox without sealing it.
func leakBatch(p *tcpnet.Port, m *wire.Message) error {
	encoded, err := m.AppendEncode(nil)
	if err != nil {
		return err
	}
	batch := wire.AppendBatchEntry(nil, encoded)
	p.Send(3, batch) // want "payload plaintext from wire.AppendBatchEntry reaches network sink tcpnet.Port.Send"
	return nil
}

// leakLog leaks a window log of batch entries without sealing it.
func leakLog(p *tcpnet.Port, m *wire.Message) error {
	log, err := m.AppendEncodeEntry(nil)
	if err != nil {
		return err
	}
	p.Send(7, log) // want "payload plaintext from wire.Message.AppendEncodeEntry reaches network sink tcpnet.Port.Send"
	return nil
}

// sealedSend is the legal unbatched path: encode, seal, send. No finding.
func sealedSend(p *tcpnet.Port, l *channel.Link, m *wire.Message) error {
	encoded, err := m.AppendEncode(nil)
	if err != nil {
		return err
	}
	env, err := l.SealEncodedAppend(nil, encoded)
	if err != nil {
		return err
	}
	p.Send(4, env)
	return nil
}

// sealedBatch is the legal batch-outbox path: entries accumulate, the batch
// is sealed once, the envelope ships. No finding.
func sealedBatch(p *tcpnet.Port, l *channel.Link, msgs []*wire.Message) error {
	var batch []byte
	for _, m := range msgs {
		encoded, err := m.AppendEncode(nil)
		if err != nil {
			return err
		}
		batch = wire.AppendBatchEntry(batch, encoded)
	}
	env, err := l.SealEncodedAppend(nil, batch)
	if err != nil {
		return err
	}
	p.Send(5, env)
	return nil
}

// reopened plaintext is a source again: opening an envelope and forwarding
// the plaintext unsealed is a violation.
func leakReopened(p *tcpnet.Port, l *channel.Link, sealed []byte) error {
	plain, err := l.OpenRawAppend(nil, sealed)
	if err != nil {
		return err
	}
	p.Send(6, plain) // want "payload plaintext from channel.Link.OpenRawAppend reaches network sink tcpnet.Port.Send"
	return nil
}

// allowedLeak exercises suppression: the directive silences the finding.
func allowedLeak(p *tcpnet.Port, m *wire.Message) {
	encoded, _ := m.Encode()
	//lint:allow sealflow golden fixture proving directives silence interprocedural findings
	p.Send(7, encoded)
}
