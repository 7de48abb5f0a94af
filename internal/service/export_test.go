package service

import "clusterpt/internal/pte"

// SlotRoundTrip fills a fresh translation-cache slot with e and reads it
// back, the path every cached translation takes.
func SlotRoundTrip(e pte.Entry) (pte.Entry, bool) {
	var c slot
	c.fill(e)
	w, boff, ok := c.load(e.VPN)
	return pte.EntryFromWord(w, e.VPN, boff), ok
}
