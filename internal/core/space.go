package core

// Space accounting for the Section 4.1 reclamation argument: "it is safe to
// discard any state elements whose n immediate predecessors in the list are
// also state elements", bounding live storage at O(n^2). In Go the garbage
// collector performs the actual reclamation — the low-water-mark GC
// (gc.go) severs the list below the anchor so nothing references the dead
// tail — but the *live region*, the prefix a future replay might still
// traverse, is measurable and should obey the paper's bound. The space
// tests measure it; nothing on the write path does.

// LiveRegion measures the list prefix that a replay by any of n processes
// could still traverse: the number of nodes from head up to and including
// the n-th consecutive snapshotted entry (everything below is unreachable
// by the replay rule), or up to the list's end — its origin or the GC's
// anchor cut — when fewer than n consecutive snapshots exist. bounded
// reports which case ended the walk: false means the walk ran off the end
// with the replay rule never closing the region, so the entire reachable
// list is live.
func LiveRegion(head *Node, n int) (length int, bounded bool) {
	consecutive := 0
	//wf:bounded [n*n] walks the live region, O(n^2) nodes by Section 4.1's reclamation argument once n consecutive snapshots close it; test- and report-only, where an unclosed region is the whole finite list
	for node := head; node != nil; node = node.Rest() {
		length++
		if node.Entry.snapshot() != nil {
			consecutive++
			if consecutive >= n {
				return length, true
			}
		} else {
			consecutive = 0
		}
	}
	return length, false
}
