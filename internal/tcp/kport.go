package tcp

import (
	"fmt"
	"net"
	"time"

	"repro/internal/comm"
)

// Measurement harness for the k-ported send path, used by the
// figSparseMesh experiment and the KPort benchmarks. It builds a sparse
// star machine — one fan-out rank driving several receivers — and paces
// the fan-out rank's writes with a fixed per-write transmission delay,
// the engine-level analogue of the paper's τ = L/B per-link
// transmission time. With the delay dominating, the Ports=1 vs Ports=k
// ratio is structural (serialized vs overlapped transmissions), not an
// artifact of how many host cores happen to back the loopback device,
// so the ≥1.5× acceptance gate holds on any machine.

// pacedConn emulates a link with a fixed per-frame transmission time:
// every Write sleeps delay before hitting the real socket. The k-ported
// drivers issue exactly one Write per frame, so the delay is charged
// per frame on both the single- and multi-ported paths.
type pacedConn struct {
	net.Conn
	delay time.Duration
}

func (c *pacedConn) Write(b []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(b)
}

// MeasureKPortRate reports steady-state frames/s of one rank fanning
// framesPerLink frames of payloadBytes out to fanout receivers over a
// sparse star mesh, with ports transmission tokens and every outbound
// write paced by perFrame. ports=0 measures the inline single-writer
// path; ports=k overlaps up to k paced transmissions.
func MeasureKPortRate(ports, fanout, payloadBytes, framesPerLink int, perFrame time.Duration) (float64, error) {
	if fanout < 1 || framesPerLink < 1 {
		return 0, fmt.Errorf("tcp: MeasureKPortRate: bad shape fanout=%d frames=%d", fanout, framesPerLink)
	}
	links := make([][2]int, fanout)
	for j := 1; j <= fanout; j++ {
		links[j-1] = [2]int{0, j}
	}
	m, err := NewMachine(fanout+1, Options{Links: links})
	if err != nil {
		return 0, err
	}
	defer m.Close()
	// Interpose the pacer on rank 0's outbound endpoints. The wrapped
	// conns stay in the teardown list, so abort/Close still unblock
	// everything.
	m.st.connMu.Lock()
	for j := 1; j <= fanout; j++ {
		m.procs[0].conns[j] = &pacedConn{Conn: m.procs[0].conns[j], delay: perFrame}
	}
	m.st.connMu.Unlock()

	payload := make([]byte, payloadBytes)
	msg := comm.Message{Parts: []comm.Part{{Origin: 0, Data: payload}}}
	res, err := m.Run(Options{Ports: ports, RecvTimeout: time.Minute}, func(pr *Proc) {
		if pr.Rank() == 0 {
			for f := 0; f < framesPerLink; f++ {
				for j := 1; j <= fanout; j++ {
					pr.Send(j, msg)
				}
			}
			return
		}
		for f := 0; f < framesPerLink; f++ {
			pr.Recv(0)
		}
	})
	if err != nil {
		return 0, err
	}
	total := float64(fanout * framesPerLink)
	return total / res.Elapsed.Seconds(), nil
}
