package sample

// WarmKey exposes warmKey to the external tests.
var WarmKey = warmKey
