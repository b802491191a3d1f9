/* strcpy into a null destination: a memory fault inside the libc. */
extern char* strcpy(char* d, const char* s);
int main(void) { strcpy(0, "x"); return 0; }
