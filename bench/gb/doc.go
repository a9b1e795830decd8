// Package gb is the repository benchmark: seven solve workloads measured
// end to end (untraced) and layer by layer (traced), driven only through the
// public functions of the layers under gossipbnb/internal.
package gb
