module gossipbnb/bench

go 1.24.0

require gossipbnb v0.0.0

replace gossipbnb => ../
