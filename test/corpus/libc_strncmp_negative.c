/* strncmp with a negative (huge size_t) bound compares whole strings;
   the first one fills a one-page heap block without a terminator, so
   reading it faults past the block's end. */
extern void* malloc(long n);
extern void* memset(void* p, int c, long n);
extern int strncmp(const char* a, const char* b, long n);
int main(void) {
  char* p = (char*) malloc(4096);
  memset(p, 97, 4096);
  return strncmp(p, "ac", -2);
}
