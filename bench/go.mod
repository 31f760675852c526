module waitfree/bench

go 1.22

require waitfree v0.0.0

replace waitfree => ../
