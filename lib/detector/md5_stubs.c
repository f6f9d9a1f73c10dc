/* Incremental MD5 over the runtime's own implementation, the code
   [Digest.string] runs, so a streamed digest equals the digest of the
   concatenated bytes.  The context lives in an OCaml [bytes] of
   [raceguard_md5_context_size ()] bytes; no function allocates. */

#define CAML_INTERNALS
#include <caml/mlvalues.h>
#include <caml/md5.h>

#define Context_val(v) ((struct MD5Context *) Bytes_val(v))

value raceguard_md5_context_size(value unit)
{
  return Val_long(sizeof(struct MD5Context));
}

value raceguard_md5_init(value ctx)
{
  caml_MD5Init(Context_val(ctx));
  return Val_unit;
}

value raceguard_md5_update(value ctx, value buf, value len)
{
  caml_MD5Update(Context_val(ctx), Bytes_val(buf), Long_val(len));
  return Val_unit;
}

value raceguard_md5_final(value ctx, value digest)
{
  caml_MD5Final(Bytes_val(digest), Context_val(ctx));
  return Val_unit;
}
