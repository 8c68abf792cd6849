//go:build !linux

package main

import "time"

// pacer sleeps for the open loop; off Linux it is time.Sleep, whose
// precision the send-lag metric reports.
type pacer struct{}

func newPacer() *pacer { return &pacer{} }

func (p *pacer) sleep(d int64) { time.Sleep(time.Duration(d)) }

func (p *pacer) close() {}
