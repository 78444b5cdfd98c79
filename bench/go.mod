module intervaljoin/bench

go 1.22

require intervaljoin v0.0.0

replace intervaljoin => ../
