// Check-10 fixture: outside src/engine the check does not apply.
namespace gt::kv {
void Cleanup(Env* env) { env->RemoveDirRecursive("/tmp/x").ok(); }
}  // namespace gt::kv
